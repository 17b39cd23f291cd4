"""Suite outputs that must stay byte for byte as recorded.

``data/golden_scaled.json`` is the certified scalar scenario at the
benchmark's scale (32 paths, t_burn 3) with two exceedance levels.  The
recorded files are its ``endpoint_convergence.csv`` and the
``pathwise_mean_sup_gap_*`` rows of its ``stability.csv``, as written by
``hybridlab suite`` when each coupled run and each pair was integrated
path by path; batching them must not move a byte.
"""

from pathlib import Path

from click.testing import CliRunner

from hybridlab.cli import main

DATA = Path(__file__).parent / "data"


def test_golden_scaled_certified_outputs(tmp_path):
    res = CliRunner().invoke(main, ["suite", "--config", str(DATA / "golden_scaled.json"),
                                    "--out", str(tmp_path)])
    assert res.exit_code == 0
    out = tmp_path / "golden_scaled"
    assert ((out / "endpoint_convergence.csv").read_bytes()
            == (DATA / "golden_endpoint_convergence.csv").read_bytes())
    lines = (out / "stability.csv").read_bytes().splitlines(keepends=True)
    pathwise = b"".join(line for line in lines if b"pathwise_mean_sup_gap" in line)
    assert pathwise == (DATA / "golden_stability_pathwise.csv").read_bytes()
