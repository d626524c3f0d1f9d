"""No random generator is seeded from ``hash()``.

``hash()`` of a ``str`` or ``bytes`` is salted per process
(``PYTHONHASHSEED``), so a generator seeded from it draws another
sequence in every run: a test built on one is a flake, and a simulation
built on one is not deterministic.  Seed from a stable digest such as
``zlib.crc32(name.encode())`` instead.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: the last name of every call that builds or seeds a generator
#: (``random.Random``, ``random.seed``, ``np.random.default_rng``,
#: ``np.random.seed``, ``np.random.RandomState``, ...)
_RNG_CALLS = {"Random", "seed", "default_rng", "RandomState",
              "SeedSequence"}


def _calls_hash(node: ast.AST) -> bool:
    return any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
               and n.func.id == "hash" for n in ast.walk(node))


def _rng_name(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else ""


def hashed_rng_seeds(source: str) -> list:
    """Lines where a ``hash()`` result seeds a generator, directly in the
    call's arguments or through a name assigned from one."""
    tree = ast.parse(source)
    tainted = {target.id for node in ast.walk(tree)
               if isinstance(node, ast.Assign) and _calls_hash(node.value)
               for target in node.targets if isinstance(target, ast.Name)}
    lines = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and _rng_name(node) in _RNG_CALLS):
            continue
        args = [*node.args, *(kw.value for kw in node.keywords)]
        if any(_calls_hash(arg) or any(
                isinstance(n, ast.Name) and n.id in tainted
                for n in ast.walk(arg)) for arg in args):
            lines.append(node.lineno)
    return lines


def test_detector_sees_direct_and_assigned_hash_seeds():
    assert hashed_rng_seeds(
        "rng = random.Random(seed * 1009 + hash(mode) % 1000)\n") == [1]
    assert hashed_rng_seeds("np.random.seed(hash(name))\n") == [1]
    assert hashed_rng_seeds(
        "s = hash(name) % 97\nrng = np.random.default_rng(s)\n") == [2]
    assert hashed_rng_seeds(
        "rng = random.Random(zlib.crc32(mode.encode()))\n") == []
    assert hashed_rng_seeds("key = hash(name)\n") == []


def test_no_generator_is_seeded_from_hash():
    offenders = [f"{path.relative_to(ROOT)}:{line}"
                 for top in ("src", "tests")
                 for path in sorted((ROOT / top).rglob("*.py"))
                 for line in hashed_rng_seeds(path.read_text())]
    assert not offenders, (
        "hash() is salted per process; seed these generators from a "
        f"stable digest instead: {offenders}")
