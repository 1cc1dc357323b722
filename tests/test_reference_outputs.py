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
        "403812c2b2f423d8fef66ec502240d41ec86c2d65aca8213d75be858bf45b329",
        "ba4adf2407fd85daf193141d84f654269e8880ffe1b383b0c6940533adfef5e0",
    ),
    ("h2", "restart_sc"): (
        "9b908d61372425678786e34579e19303d351b14dfad89b3b818c40bf0409aaa2",
        "8485e127ea71c8a794dc9abcaa99e04225c1f153dc5cd27e0305dd248985b5d5",
    ),
    ("h2", "reduce_gc"): (
        "499f9b0b7c7ad015d112ff7ce15898ecf713535384e3ba9ec26754433b0fb5e5",
        "01ba915cb9c43f5b8debc8de633a2ef04e7c87e92e1cb15fa6d0d87081321eac",
    ),
    ("h2", "rgd"): (
        "6200472b0221cb0e711818dc65b163ea63c5ce26eda8208383b82fd4cd51d18e",
        "050f921715789c072227ab42df78729a5976338656e72c9f2f4ebba449bca52f",
    ),
    ("h2_cond300", "axgd"): (
        "a835ee9cbf1d5b36612989a36c45ee0936ecc5a056d6fab2c9ab01606a3b41a2",
        "d315e570462cd8b7e5d4e17836b6a04d27c2c0fbf7396a2ae4df9c895c7faa23",
    ),
    ("h2_cond300", "restart_sc"): (
        "124603b3f9265bd6274bf0d7fd4f67fb717a10267b4d7c448ab239f1342bbc9f",
        "fd2bffaee6311bff78de67dd85155f6f8c7aff49ef9671abbf98e35f55a4e63b",
    ),
    ("h2_cond300", "reduce_gc"): (
        "5a9bbd05b15acfe1a17ae76a03d5dd0a31c48c985fd0c01af9f6036e939c8688",
        "b1652ae3c7b0deb4037d23f58e5867c2157f9600640936bb4109d4dcdb8afd15",
    ),
    ("h2_cond300", "rgd"): (
        "93a9a51613a8bafb8b3ab6435b2177e71dc24a4f42f8ac8ccfe961a70c8a0c44",
        "971d6f377101187e13a0a80317f7bc50566c5a821466c7566250d8d989e56eb7",
    ),
    ("s5", "axgd"): (
        "ab6c177a51517217fb062b3de16be48783d7a16878ba8c494ffbfc6f801dc40a",
        "1ef6df0561b6dc0602af4c5a8cee080192dbef1ce04dbc28e101dd6b16a61335",
    ),
    ("s5", "restart_sc"): (
        "bae7e9682fd8dd1556b31421cb066e0046cc6b8f4009a728c7eb84865634502d",
        "bd82e9c386d3cb57d502ce7eefaf7b8aae1e5777c51e623c1a218baebfa41f94",
    ),
    ("s5", "reduce_gc"): (
        "cba7fd8dcbeaeb81306e29967ba9bbeac3a27d1b0ce95af1672c9fa033b13617",
        "89fbbe9ff067b49d253d36bad973254edc7b9e69af48deba1d659ccb8c727480",
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
            "restart_sc_cond10.csv": "0a6246e3d0b49801527506d36772eb31bbaee884ea6dbdeef185eff864f11f9b",
            "restart_sc_cond100.csv": "f82b9a6d62c661db6788395fc0124cdd20312c94a209986aaebbec82270f3e22",
            "restart_sc_summary.csv": "9a3ae46c76818b4b9e769bc5f1d317ef8b0bfd88535f58155712057380cd7730",
        },
        "1e0587c8409086b6d1543a644f63502644708b664b9cb03f7b16fc211cab3076",
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
