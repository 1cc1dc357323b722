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
        "3e271b00cbb396a04ca39321f7df674b50f1fcbae0c0ddda0b819ab30626a3ab",
        "5b3231d4cf9714609fbf0093691ad90eb6cdedb449dfae8ad0a40b6c54621162",
    ),
    ("h2", "restart_sc"): (
        "13748fbfa3b6fb93d2b55b9ae67c4a84cd3a8dd81265a798b5bf97d828120e46",
        "1a4e186260a3be4febb6f102f6655e3e14c1d3a77529d07b473cb86cb13d411a",
    ),
    ("h2", "reduce_gc"): (
        "fd366c50d656fc80bb0a0fc3adb15c092bc1ecd3dbbc89c63e97ec938bd024e6",
        "c38068de09337c25923c5be24e7019f3078ea48f0316b37a0672027dd8b0b1b7",
    ),
    ("h2", "rgd"): (
        "6200472b0221cb0e711818dc65b163ea63c5ce26eda8208383b82fd4cd51d18e",
        "050f921715789c072227ab42df78729a5976338656e72c9f2f4ebba449bca52f",
    ),
    ("h2_cond300", "axgd"): (
        "d695c37ba09b6abc75c833328febf3fa2ec5f69bb430b5d6aa86cddc8c4aef9d",
        "27d7e592a2fb0334a3efb18fcc2eb8de434b3abf1ffb22d2361ff9f98932479f",
    ),
    ("h2_cond300", "restart_sc"): (
        "dee08be71669b623356f941a5d72167759af0812c0a0c6e8fe249bd8b4b41c81",
        "4e8e76c1f7fcf0b342c16f7ad16a8b537ba6ae6a8c1e5622c48ee0ba71d581c1",
    ),
    ("h2_cond300", "reduce_gc"): (
        "e54b0b4c7b43cea8f9e16ef916cb234f867c465c2b205e882b469f3a6ab831e5",
        "f552c86e2ac10ef661f9ef5a934d81cf9605b9badc9b11537d1c3bfbe52ad728",
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
            "restart_sc_cond10.csv": "698449296cc54720273d6413663afcc15190f01622d042aa96d7c14531a52ec0",
            "restart_sc_cond100.csv": "4860206e3a9f616bd0ae3ce518fc035668268d3c63a594a8cd5c1a26eca05799",
            "restart_sc_summary.csv": "36de81c2b5068d2094eb35ca1725bf0ea99f234901291fe9620f8b5f3bc3324b",
        },
        "e299b8722c40686ea186167d5f225635b28f041dbea586122127e6da0d1455c2",
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
VERIFY_DIGEST = "590571695049328306a1d30079453bf9a370415b3753873217b15dba893c80ad"


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
