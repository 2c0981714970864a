"""The Python examples of README.md run as written, and the names and
values it quotes from the package are the code's."""

import importlib
import pkgutil
import re
from pathlib import Path

import delay_wave_lab

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = {m.name for m in pkgutil.iter_modules(delay_wave_lab.__path__)}
# `module.NAME`, optionally followed by = value, where value is a number or
# base^exponent
QUOTED = re.compile(r"`(\w+)\.(\w+)`(?:\s*=\s*(\d+(?:\.\d+)?(?:\^\d+)?))?")


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        flags=re.S | re.M)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def _quoted_names():
    return [m for m in QUOTED.finditer(README.read_text()) if m[1] in MODULES]


def test_readme_module_names_resolve():
    quoted = _quoted_names()
    assert len(quoted) >= 5
    for m in quoted:
        module = importlib.import_module(f"delay_wave_lab.{m[1]}")
        assert hasattr(module, m[2]), f"README quotes {m[1]}.{m[2]}, which is gone"


def test_readme_class_attributes_resolve():
    # `Class.attr` quotes of the classes the package exports; a dataclass
    # field without a default is no class attribute
    quoted = [m for m in QUOTED.finditer(README.read_text())
              if m[1] in delay_wave_lab.__all__ and isinstance(getattr(delay_wave_lab, m[1]), type)]
    assert {f"{m[1]}.{m[2]}" for m in quoted} >= {"DiscreteGenerator.energy", "Params.shift"}
    for m in quoted:
        cls = getattr(delay_wave_lab, m[1])
        assert hasattr(cls, m[2]) or m[2] in getattr(cls, "__dataclass_fields__", {}), \
            f"README quotes {m[1]}.{m[2]}, which is gone"


def test_readme_quoted_values_equal_the_code():
    quoted = [m for m in _quoted_names() if m[3]]
    assert {f"{m[1]}.{m[2]}" for m in quoted} >= {
        "timestepper.ENERGY_BLOCK_ENTRIES", "timestepper.POWER_BLOCK",
        "timestepper.POWER_STEPS_PER_DIM", "discretization.SPARSE_MIN_DIM"}
    for m in quoted:
        base, _, exponent = m[3].partition("^")
        value = float(base) ** int(exponent or 1)
        code = getattr(importlib.import_module(f"delay_wave_lab.{m[1]}"), m[2])
        assert code == value, f"README gives {m[1]}.{m[2]} = {m[3]}, the code {code}"


def test_readme_root_search_counts_equal_the_search(monkeypatch):
    # the roots, calls of F, points and repeated points README quotes for
    # the reference, spectral and Kelvin-Voigt searches are the search's
    from test_spectral import KV_WORKLOAD_CASE, REFERENCE_CASE, SPECTRAL_CASE, _search_calls

    from delay_wave_lab.spectral import characteristic_roots

    text = " ".join(README.read_text().split())
    number = r"(\d[\d,]*)"
    quoted = [re.search(pattern.replace("N", number), text) for pattern in (
        r"The N roots of Re \[-5, 0\.5\] x Im \[-20, 20\] take N calls of N points",
        r"the N of Im \[-60, 60\] take N calls of N points",
        r"Re \[-0\.9, 0\.5\] x Im \[-60, 60\], takes N calls of N points",
        r"Of these, N and N points are evaluated a second time")]
    assert all(quoted), quoted
    ints = [[int(g.replace(",", "")) for g in m.groups()] for m in quoted]
    repeats = []
    for (p, region), got in zip((REFERENCE_CASE, SPECTRAL_CASE, KV_WORKLOAD_CASE), ints):
        calls, points, distinct = _search_calls(p, region, monkeypatch)
        monkeypatch.undo()
        if len(got) == 3:
            assert got[0] == len(characteristic_roots(p, region))
        assert got[-2:] == [calls, points], region
        repeats.append(points - distinct)
    assert ints[3] == repeats[:2]
