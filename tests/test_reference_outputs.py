"""Byte-identity of the reference runs: SHA-256 digests of their outputs.

A change that is meant to keep every trace as it is (a refactor, a leaner
kernel) must leave these digests alone.  Each reference ``bench run``
config is run in-process for every solver at epsilon = 1e-3 with random
weights; its CSV trace and its stdout line are hashed.  Two cheap sweeps,
the README's ``rgd`` epsilon sweep on ``rate.cfg`` and a two-point
``restart_sc`` condition sweep on ``cond.cfg``, are hashed on every file
they write and on their stdout.  ``bench verify --samples 500`` is hashed
on its stdout.  The digests were taken with
numpy 2.4.6; a numpy that sums or rounds differently may move them, and
then a change to the program is judged against a run of its parent on the
same numpy.  When they move after a numpy upgrade, look first at
``tests/test_manifolds.py::TestRowsum``: it fails, and names the row
width, if numpy no longer sums a row the way ``manifolds.rowsum`` does.  A change to the algorithm on purpose regenerates them with
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
        "a993779b9b6582be10fa6ad2fb7f95ea48085951c68695df10b9cb6ad5827a7f",
        "30f8ec72b45377d8fb41b113643af52a5e24ac3d114e26936a891624062b7b94",
    ),
    ("h2", "restart_sc"): (
        "077a3c2b37f63693a547a85feba7cf04e4a4bde05ac5a18d3c877783d066a18e",
        "f5d8f944da83db67d4250f377f09d2c2634845a523559ede0228c92f30b3d19c",
    ),
    ("h2", "reduce_gc"): (
        "bcd2d8f8142b06ec0c70ce1d4fe2ffcce6c45f27ea619e3cb1bb81c0efb066d0",
        "d1fa0777ca4cd9a351dd997aa0d8574a44cf3c582673d3f65b8c555bcc144b82",
    ),
    ("h2", "rgd"): (
        "6200472b0221cb0e711818dc65b163ea63c5ce26eda8208383b82fd4cd51d18e",
        "050f921715789c072227ab42df78729a5976338656e72c9f2f4ebba449bca52f",
    ),
    ("h2_cond300", "axgd"): (
        "e1189d199599b1c4fc09602ae13150eae7cb8f3c947066a94657e394a46f445d",
        "be86845074247847702d688b215a83bc95a7b99683065f0be496955f44864b19",
    ),
    ("h2_cond300", "restart_sc"): (
        "53775e11da9d2b93422e7f9a9828eb310a52f09b2b75206c060ccd6bd1e7cd0a",
        "24ab01225bef54b48b42ccc7e39710379b98de0f11130615e8f014c09766cce6",
    ),
    ("h2_cond300", "reduce_gc"): (
        "a5755ad62697969606f31bfdef078ac39a47b444947c2f2fd71137ecfd883c4a",
        "3428ec344bc048c72ee5d8f00bf37058e5ffeb8182ad6fa4157bc91be714906e",
    ),
    ("h2_cond300", "rgd"): (
        "93a9a51613a8bafb8b3ab6435b2177e71dc24a4f42f8ac8ccfe961a70c8a0c44",
        "971d6f377101187e13a0a80317f7bc50566c5a821466c7566250d8d989e56eb7",
    ),
    ("s5", "axgd"): (
        "f98b4c90f2008c3f6a13b371c3b059521d57a7b9fcc6cd1b9eb700a1132f9e43",
        "409b38c77a3532041cc53351b327e3a1b063ed770067b707fd8da48e697dc52b",
    ),
    ("s5", "restart_sc"): (
        "3946527c189c9af05989bb2e050a31584af8798db5ec689a3eab74a1a058fdf8",
        "90fec41aae082af149e136363c09bef95dc843961125560ecba646f99c927134",
    ),
    ("s5", "reduce_gc"): (
        "0688b7f0762add0cf9370c6ba585a16318123797970be94c8cbaa18260d3ef7a",
        "1fbca628336efb5426490ee704dae7ba84474df85a6de72c8b2a8ea627bf0687",
    ),
    ("s5", "rgd"): (
        "8781ef47e565a4f92b2491b48e57ea9ac091c774b2cdbfaba94c8146ba4634d3",
        "b316c82d295b03c46aeb5fb9d2ac16da28c69eec4a20043bed3860905f986a0c",
    ),
}
# The README's sweep configs, and (config, sweep flags) per reference sweep.
SWEEP_CONFIGS = {
    "rate": "manifold = hyperbolic\nd = 2\nR = 1.0\nanchor_count = 5\nweights = random\n"
    "treat_gconvex = true\nseed = 20240\n",
    "cond": "manifold = hyperbolic\nd = 2\nR = 1.0\nanchor_count = 5\nweights = random\n"
    "seed = 20240\nepsilon = 1e-6\n",
}
SWEEPS = {
    "rate_rgd": ("rate", ["--solver", "rgd", "--epsilons", "1e-2,1e-3,1e-4,1e-5"]),
    "cond_restart_sc": ("cond", ["--solver", "restart_sc", "--conditions", "10,100"]),
}
# sweep -> ({file name: sha256 of the file}, sha256 of the stdout)
SWEEP_DIGESTS = {
    "cond_restart_sc": (
        {
            "restart_sc_cond10.csv": "1a6ea7422cfb88def350013dd28dc9d8b815134f722bcf5848de3fcf8940d621",
            "restart_sc_cond100.csv": "7fe18d0184ca6f1a3ad82045ffd3ddd1c06b33d41431ff64df6ccc2e13b0e431",
            "restart_sc_summary.csv": "1a4ae6b138ea431bcdd899d870f26648ec8a76ab35153b65e480bfc158452196",
        },
        "d5b2e425343f8005612aa4e4369658a02d33f94079ebdc17c2bf5229292e8974",
    ),
    "rate_rgd": (
        {
            "rgd_eps0.0001.csv": "5cb24ef9ab471c78e7b10d2d4a1219e144410f5670936f58bef24c510ebea29c",
            "rgd_eps0.001.csv": "773858123a1a01334eb72592cbca2c4881aaacb6275f2a2b5c764d5ff0ee7251",
            "rgd_eps0.01.csv": "e7d47cb25c9a18da38e1c9fcfa19213f19a6b271e9405fffee83231b9a0c509f",
            "rgd_eps1e-05.csv": "1195bf64e2ee91eb0129718a686f0d9b756a33145cbf04bd75ae35af970ffe74",
            "rgd_summary.csv": "a67ad85e189ba463c1e9e75022578142c4a9cf3f14dc73b0824d7434559d4069",
        },
        "df26a9aa9bafd72267d4326bb2ba9cc6e19b7461f6b4d8f6ac6733921365c411",
    ),
}
VERIFY_DIGEST = "1ef5c3b52422b1e24fb4141b3de44d501227991d0c807d872d8e361217d7dd90"


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


def sweep_digests(sweep, tmp_path, capsys):
    config, flags = SWEEPS[sweep]
    cfg = tmp_path / f"{config}.cfg"
    cfg.write_text(SWEEP_CONFIGS[config])
    out_dir = tmp_path / sweep
    code, out = _bench(["sweep", "--config", str(cfg), *flags, "--output-dir", str(out_dir)], capsys)
    assert code == 0
    return {f.name: _sha(f.read_bytes()) for f in sorted(out_dir.iterdir())}, _sha(out)


def verify_digest(capsys):
    code, out = _bench(["verify", "--samples", "500"], capsys)
    assert code == 0
    return _sha(out)


@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_run_outputs_keep_their_bytes(config, solver, tmp_path, capsys):
    assert run_digests(config, solver, tmp_path, capsys) == RUN_DIGESTS[config, solver]


@pytest.mark.parametrize("sweep", sorted(SWEEPS))
def test_sweep_outputs_keep_their_bytes(sweep, tmp_path, capsys):
    assert sweep_digests(sweep, tmp_path, capsys) == SWEEP_DIGESTS[sweep]


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
        sweeps = {sweep: sweep_digests(sweep, pathlib.Path(tmp), capture) for sweep in sorted(SWEEPS)}
        verify = verify_digest(capture)
    print("RUN_DIGESTS = {")
    for (config, solver), (csv, out) in table.items():
        print(f'    ("{config}", "{solver}"): (\n        "{csv}",\n        "{out}",\n    ),')
    print("}")
    print("SWEEP_DIGESTS = {")
    for sweep, (files, out) in sweeps.items():
        print(f'    "{sweep}": (\n        {{')
        for name, sha in files.items():
            print(f'            "{name}": "{sha}",')
        print(f'        }},\n        "{out}",\n    ),')
    print("}")
    print(f'VERIFY_DIGEST = "{verify}"')
