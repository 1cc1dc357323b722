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
        "146360209282621d4d1c217161624f3e28629835ec15508e9d72dae8816785f4",
        "7dcbb5df076ae055a66b424b434c0e8e0c99609438712a6390c53ac4e09f2e6a",
    ),
    ("h2", "restart_sc"): (
        "ce522b3ce5d88eb561a0dae37d5883aeab3b5e740a96e4bda91def81ecb51b09",
        "152f2009661f2a9f3d20dff89c1be50d3740dfdb7d89c396b3a80bb9c3c24058",
    ),
    ("h2", "reduce_gc"): (
        "20ca0180c01b81676daa717f3d35d21f59a3f36b0fa3b558c87d4e86253c02ea",
        "ae15f1972a56d4fa474f64e51a40d4b8dce61890ada20a39e2f00db05411a43e",
    ),
    ("h2", "rgd"): (
        "6200472b0221cb0e711818dc65b163ea63c5ce26eda8208383b82fd4cd51d18e",
        "050f921715789c072227ab42df78729a5976338656e72c9f2f4ebba449bca52f",
    ),
    ("h2_cond300", "axgd"): (
        "cc3c7d76dd5a1667953c194dbacf3e50ec25c66bf909693cf1f829c01beefe32",
        "5616939de818e29a0ded0a090dfb1b2870630831c6d5042cbaa77f93a08c756d",
    ),
    ("h2_cond300", "restart_sc"): (
        "44abe7195e9f870c61cf1b2ee950d56af411f8d657718d79de0bad71c6241124",
        "1f788cf03863db9f5765767033622ddf68bcdb778598471e8e782cdbcd9c7692",
    ),
    ("h2_cond300", "reduce_gc"): (
        "47da4a5dd5266867d2274bab158b06e85c09f0f1d5d328619a7e285cab7edcc8",
        "4e5ab1f52b0b29eb5ef230492188a7e9a3fd6b6aadff83b3dc54c3eac15df4b2",
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
            "restart_sc_cond10.csv": "505c7d99b5d0d9514dc5cccc73bc551cc0799bd984b51f92c84c4529c0bebe4d",
            "restart_sc_cond100.csv": "ff191dbff62a1a0ae3ee3c83a2b3a3ff17b20c94cc81fbdd4be06cba99670a7c",
            "restart_sc_summary.csv": "7686b6c2fce6dd16f392a1e31a6323e408affc0042bde1ae6c46575f38df4b1e",
        },
        "2f6dba071641e9f8d2fe81a16d0faa29f412b0553fd814a3128bae42e42692dd",
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
