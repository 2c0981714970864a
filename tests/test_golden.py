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
        "70559097b75aa215fc53c12372c87d771c00cbf2a012633b471e887c3690672a",
    "simulate --law kelvin_voigt --mu 0.5":
        "6ac169c23f8fca9725dd7d2861b8daedb0d2f245850322b2ca227cd325b5e120",
    "sweep":
        "225e2a380a27dc4ef2e8a3862716ea5cf087ae2b184c8399e52054b1d88281e4",
    "sweep --shifted false --values 1,2,4,8":
        "f9e30e59962dd4b24722f38f783f59e0d0367fb87e2f503f91dde1dcb5989de7",
    "spectrum":
        "5d6c912c6bbef134f8beadf875503a17525943d1a46ec46ea0f936fc58d91e08",
    "resolvent":
        "979bdfaf6372acc332ee001bfd0e6e7b1f2e95a0f662ca6d2f7dfaadbfa87f11",
    "resolvent --nx 160 --nrho 160":
        "ddc60f94613cd35c91cd5a578e660a31bb51b8cb36bb184333f9f4475e8c11d2",
    "charroots":
        "9372ccfcaf513b81bbc081b229446ce5520b6d06607a04a8ce7673754f6d52e8",
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
