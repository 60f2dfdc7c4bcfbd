"""Dashboard renderer: well-formed, self-contained, data-complete."""

from html.parser import HTMLParser

import pytest

from repro.obs.accounting import BUCKETS, bucket_breakdown
from repro.obs.dashboard import render_dashboard, write_dashboard


class _Balance(HTMLParser):
    VOID = {"meta", "br", "hr", "img", "input", "link"}

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.stack = []
        self.errors = []
        self.counts = {}

    def handle_starttag(self, tag, attrs):
        self.counts[tag] = self.counts.get(tag, 0) + 1
        if tag not in self.VOID:
            self.stack.append(tag)
        for key, value in attrs:
            if key in ("width", "height") and value:
                assert float(value) >= 0, f"negative {key} on <{tag}>"

    def handle_endtag(self, tag):
        if self.stack and self.stack[-1] == tag:
            self.stack.pop()
        elif tag not in self.VOID:
            self.errors.append(tag)


@pytest.fixture
def report():
    def breakdown(host, offload=0, squash=0):
        return bucket_breakdown({
            "cycles": host + offload + squash,
            "cycles_host": host,
            "cycles_offload": offload,
            "cycles_squash_branch": squash,
        })

    return {
        "schema_version": 2,
        "code_fingerprint": "ab" * 32,
        "scale": 0.05,
        "wall_clock_seconds": 1.25,
        "geomean": {"mapping": 0.96, "no_spec": 1.01, "spec": 1.10},
        "warnings": ["geomean speedup for 'mapping' is 0.960x (< 1.0x)"],
        "per_benchmark": {"KM": {"mapping": 0.98, "no_spec": 1.0,
                                 "spec": 1.06}},
        "accounting": {
            "KM": {
                "baseline": breakdown(1000, squash=500),
                "mapping": breakdown(1020, squash=510),
                "no_spec": breakdown(400, offload=700, squash=200),
                "spec": breakdown(300, offload=600, squash=100),
            },
        },
        "fabric_utilization": {
            "KM": {
                "num_fabrics": 1,
                "num_stripes": 2,
                "total_pes": 24,
                "total_invocations": 10,
                "reconfigurations": 3,
                "placed_pe_ratio": 0.25,
                "stripe_fill": 0.5,
                "per_stripe": [
                    {"stripe": 0, "pes": 12, "placed_pe_invocations": 40,
                     "invocations": 10, "occupancy": 0.33},
                    {"stripe": 1, "pes": 12, "placed_pe_invocations": 20,
                     "invocations": 10, "occupancy": 0.17},
                ],
                "reuse_distance": {"count": 2, "mean": 1.5, "max": 2},
            },
        },
    }


def test_dashboard_is_well_formed_html(report):
    doc = render_dashboard(report)
    parser = _Balance()
    parser.feed(doc)
    assert parser.stack == [], f"unclosed tags: {parser.stack}"
    assert parser.errors == [], f"mismatched tags: {parser.errors}"


def test_dashboard_is_self_contained(report):
    doc = render_dashboard(report)
    assert "<script" not in doc
    assert "http://" not in doc and "https://" not in doc
    assert "@import" not in doc


def test_dashboard_carries_every_value(report):
    doc = render_dashboard(report)
    for bucket in BUCKETS:
        assert f"--bucket-{bucket}" in doc       # legend + segments
    assert doc.count('class="swatch"') == len(BUCKETS)
    assert "1.10×" in doc                        # geomean tile
    assert "geomean speedup for" in doc          # warnings surfaced
    assert "KM" in doc
    # Table view backs the charts (the light-palette contrast relief).
    assert "<table>" in doc
    assert "1,500" in doc                        # baseline total in table
    # Heatmap tooltips carry exact occupancy.
    assert "occupancy 33.0%" in doc


def test_dashboard_tolerates_empty_report():
    doc = render_dashboard({"schema_version": 2})
    assert "no accounting data" in doc
    assert "no fabric-utilization data" in doc


def test_write_dashboard_creates_index(tmp_path, report):
    path = write_dashboard(report, tmp_path / "dash")
    assert path == tmp_path / "dash" / "index.html"
    assert path.read_text().startswith("<!DOCTYPE html>")
