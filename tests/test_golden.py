"""Golden outputs of the reference CLI commands.

Each command's stdout is hashed with SHA-256 and compared with the hash
recorded when its output was last deliberately changed.  The commands run in
one subprocess with one BLAS/OpenMP thread, because reductions in
multithreaded BLAS may round differently.  A change that moves the linear
algebra on purpose updates the hash it prints here and names the new
tolerance in CHANGES.md.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

GOLDEN = {
    "simulate":
        "f0f647dd6b0ae321fbef11b249ec0c0813f1a42ac259b5ecc7c44b6b0949f04d",
    "simulate --law kelvin_voigt --mu 0.5":
        "26a4e3616a60ae8df55039680eca65d21964883c06490484f8a960fc652a5504",
    "simulate --law kelvin_voigt --mu 0.5 --nx 60 --nrho 60 --dt 0.01":
        "dd1db93a787c8dbb406f4afff85c2086232b883b1acd3b91ee10e65576b0bb88",
    "sweep":
        "98c929ff1abd536fb7f19f23654a634c557be8c8cd9a90519db968d61c330f70",
    "sweep --shifted false --values 1,2,4,8":
        "8d39d2305c403c784bb0de203b5006159e6968f87d60872983e8e931ff801038",
    "spectrum":
        "5d6c912c6bbef134f8beadf875503a17525943d1a46ec46ea0f936fc58d91e08",
    "resolvent":
        "c373e9f7ff4894d96bd9200f3ee25f46a6a326cf0d3cc980614911621806bbcb",
    "resolvent --nx 160 --nrho 160":
        "2396546254761402fdd95800bef73c85fa01741aa66cf4224c1ab5f0e86e94f8",
    "charroots":
        "9872eb45c084613dc9a72355a377dccb4e7c023d5b7ef5603585baa2f0a1ad91",
    "robin --c-star":
        "8d80dd54cefccd97dd4a137fda2a610a4f72f6c7aa1445fbbf470f5be6cce2fa",
    "robin --robin_c -2":
        "8bce90e04d442d1a75794c6f135b85a7cdc5d35961d46ad75cbfda5f42e8ded6",
    "verify":
        "ad0cf73af54e24c9b66122014da4960d397132a60f7b996cf9872164f9aa68fc",
}

RUNNER = """
import contextlib, hashlib, io, json, sys
from delay_wave_lab import cli

out = {}
for command in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(command.split())
    out[command] = [code, hashlib.sha256(buf.getvalue().encode()).hexdigest()]
print(json.dumps(out))
"""


def test_reference_commands_match_their_golden_hashes():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", RUNNER, json.dumps(list(GOLDEN))],
                          env=env, capture_output=True, text=True, check=True)
    got = json.loads(proc.stdout)
    codes = {command: code for command, (code, _) in got.items() if code != 0}
    assert not codes, f"nonzero exit codes: {codes}"
    changed = {command: digest for command, (_, digest) in got.items()
               if digest != GOLDEN[command]}
    assert not changed, "stdout changed; new hashes:\n" + "\n".join(
        f"    {command!r}: {digest!r}," for command, digest in changed.items())
