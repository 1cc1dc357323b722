"""Byte-identity of the reference runs: SHA-256 digests of their outputs.

A change that is meant to keep every trace as it is (a refactor, a leaner
kernel) must leave these digests alone.  Each reference ``bench run``
config is run in-process for every solver at epsilon = 1e-3 with random
weights; its CSV trace and its stdout line are hashed.  ``bench verify
--samples 500`` is hashed on its stdout.  The digests were taken with
numpy 2.4.6; a numpy that sums or rounds differently may move them, and
then a change to the program is judged against a run of its parent on the
same numpy.  A change to the algorithm on purpose regenerates them with
``python tests/test_reference_outputs.py`` and says so.
"""

import contextlib
import hashlib
import io
import pathlib
import tempfile

import pytest

from curvopt import bench

SOLVERS = ("axgd", "restart_sc", "reduce_gc", "rgd")
CONFIGS = {
    "h2": "manifold = hyperbolic\nd = 2\nR = 1.0\nanchor_count = 5\nseed = 20240\n",
    "s5": "manifold = spherical\nd = 5\ncurvature = 1.0\nR = 0.6\nanchor_count = 8\nseed = 3\n",
    "h2_cond300": "manifold = hyperbolic\nd = 2\nR = 1.0\nanchor_count = 5\nseed = 20240\ncondition = 300\n",
}
COMMON = "weights = random\nepsilon = 1e-3\n"

# (config, solver) -> (sha256 of the CSV, sha256 of the stdout)
RUN_DIGESTS = {
    ("h2", "axgd"): (
        "1e49f854db513a079a50fd067cf85a6798e481589acf23f57eebe1c8caa0f444",
        "4de1c47d527fd2fa9a532d557f6ec2ee164c04292992afddac5039206679e831",
    ),
    ("h2", "restart_sc"): (
        "17975838b7660e33b776638b23bb316c75d93c5ea833537bd1e18b1501434c43",
        "971f6966c76fc1c3a7a4bf96d83bd26868a39a8910c88bf6df3c65cc780076e2",
    ),
    ("h2", "reduce_gc"): (
        "738bce14a71862b3c94506d53b1e7e8a20082cb58418da54933f7ef7ef940917",
        "e41f7b3a31bdc2773c5aec120098533458f876c9af854a9c21201f0937a3394e",
    ),
    ("h2", "rgd"): (
        "6200472b0221cb0e711818dc65b163ea63c5ce26eda8208383b82fd4cd51d18e",
        "050f921715789c072227ab42df78729a5976338656e72c9f2f4ebba449bca52f",
    ),
    ("h2_cond300", "axgd"): (
        "9f9e1334ed125ee4f96c34163c50cce469128efbb67d3b41f511d00cadedf694",
        "c761822d4255af20e8acabd3c0e3c54bd46681b2580e016d34b7858cd2b1acff",
    ),
    ("h2_cond300", "restart_sc"): (
        "72077d68b2cfef5ebb2131cd74458a1d58615a4769b11dd7d5f42ae5a80adb43",
        "0886b27729f021da264a4cf42e84c8919c55e30af05a67034db78c8c3ce52566",
    ),
    ("h2_cond300", "reduce_gc"): (
        "aae7979a7c25f3d517e45325d6bd9cdb1b38ab236fd603f1d6040559883ddc1b",
        "74dbfd6debd97c6616b141f6f66ded870b61d23f1b256b2e8577270c1c54142e",
    ),
    ("h2_cond300", "rgd"): (
        "93a9a51613a8bafb8b3ab6435b2177e71dc24a4f42f8ac8ccfe961a70c8a0c44",
        "971d6f377101187e13a0a80317f7bc50566c5a821466c7566250d8d989e56eb7",
    ),
    ("s5", "axgd"): (
        "7a30beea1ab101bce926110c6b69e900b715622f95d81a55440b08ec57239d09",
        "c4bf8f1a02e0db05c130f0cfc38a383d99432105718de224fb754fb21212655a",
    ),
    ("s5", "restart_sc"): (
        "e1ca28356307ebbef6311df3b63959b11bc24da0ce3c6fdb6f062d72d4b55d55",
        "ad941e9dba8d42fb2b2f8de589a8650611cf8a49e8cc07ed544178c0bbeff32b",
    ),
    ("s5", "reduce_gc"): (
        "f17ef089b6368392cd4c4acb51f7b691794eb2154cebb782c231fa25b0cd3803",
        "29fe050713ab46dc0e37870c673d1bbdf5664c05222822ccbbbfc372e8fb3f55",
    ),
    ("s5", "rgd"): (
        "8781ef47e565a4f92b2491b48e57ea9ac091c774b2cdbfaba94c8146ba4634d3",
        "b316c82d295b03c46aeb5fb9d2ac16da28c69eec4a20043bed3860905f986a0c",
    ),
}
VERIFY_DIGEST = "ad195fb8e487256d3e1b79c86e3f6281133b529691975a500544d5fa69c20d4c"


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _bench(argv, capsys):
    code = bench.main(argv)
    out, err = capsys.readouterr()
    assert err == ""
    return code, out.encode()


def run_digests(config, solver, tmp_path, capsys):
    cfg = tmp_path / f"{config}.cfg"
    cfg.write_text(CONFIGS[config] + COMMON)
    csv = tmp_path / f"{config}_{solver}.csv"
    code, out = _bench(["run", "--config", str(cfg), "--solver", solver, "--output", str(csv)], capsys)
    assert code == 0
    return _sha(csv.read_bytes()), _sha(out)


def verify_digest(capsys):
    code, out = _bench(["verify", "--samples", "500"], capsys)
    assert code == 0
    return _sha(out)


@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_run_outputs_keep_their_bytes(config, solver, tmp_path, capsys):
    assert run_digests(config, solver, tmp_path, capsys) == RUN_DIGESTS[config, solver]


def test_verify_output_keeps_its_bytes(capsys):
    assert verify_digest(capsys) == VERIFY_DIGEST


class _Capture:
    """Stand-in for pytest's ``capsys`` when the module is run as a script."""

    def __init__(self):
        self.out, self.err = io.StringIO(), io.StringIO()

    def readouterr(self):
        out, err = self.out.getvalue(), self.err.getvalue()
        for buf in (self.out, self.err):
            buf.seek(0)
            buf.truncate()
        return out, err


if __name__ == "__main__":
    # Print the digest table of the current program, to paste above.
    capture = _Capture()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(capture.out), \
            contextlib.redirect_stderr(capture.err):
        table = {
            (config, solver): run_digests(config, solver, pathlib.Path(tmp), capture)
            for config in sorted(CONFIGS)
            for solver in SOLVERS
        }
        verify = verify_digest(capture)
    print("RUN_DIGESTS = {")
    for (config, solver), (csv, out) in table.items():
        print(f'    ("{config}", "{solver}"): (\n        "{csv}",\n        "{out}",\n    ),')
    print("}")
    print(f'VERIFY_DIGEST = "{verify}"')
