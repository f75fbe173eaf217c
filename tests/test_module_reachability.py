"""ROADMAP item 3's keep rule: a package module stays only if a CDC entry
point reaches it through imports, or it is named in ``KEPT`` with the
reason it stays. Imports are read with ``ast`` (nothing is imported),
including the lazy ones inside functions, such as ``codecs.py``'s
``from .mkv import``."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = "go_tfdata_ray"

# module (relative to the package) -> why it stays without a CDC importer
KEPT = {
    "pipelines.channels": "go-tfdata's SampleChannel, the reference surface",
    "functions.lm": "pending deletion under ROADMAP item 3",
    "pipelines.curate": "pending deletion under ROADMAP item 3",
}


def _package_modules() -> dict[str, Path]:
    """Dotted module name -> file, for every module of the package."""
    out = {}
    for f in (ROOT / PKG).rglob("*.py"):
        parts = f.relative_to(ROOT).with_suffix("").parts
        out[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = f
    return out


def _imported(path: Path, name: str | None, modules: dict) -> set[str]:
    """The package modules ``path`` imports anywhere in its body. ``name``
    is its dotted module name (None outside the package)."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            targets = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # relative: resolve against the importer's package
                pkg = name.split(".")
                if path.name != "__init__.py":
                    pkg = pkg[:-1]
                pkg = pkg[:len(pkg) - node.level + 1]
                base = ".".join(pkg + [base] if base else pkg)
            targets = [base] + [f"{base}.{a.name}" for a in node.names]
        else:
            continue
        for t in targets:
            parts = t.split(".")
            # importing a.b.c runs a and a.b as well
            found |= {m for m in (".".join(parts[:i])
                                  for i in range(1, len(parts) + 1))
                      if m in modules}
    return found


def _entry_points(modules: dict) -> list[tuple[Path, str | None]]:
    roots = [(f, m) for m, f in modules.items()
             if m.startswith(f"{PKG}.cdc.") or m == f"{PKG}.cdc"]
    roots += [(ROOT / n, None) for n in ("bench.py", "__ray_entry__.py")]
    for d in ("tools", "perfbench"):
        roots += [(f, None) for f in sorted((ROOT / d).glob("*.py"))
                  if not f.name.startswith("test_")]
    return roots


def _reached(modules: dict) -> set[str]:
    todo = []
    for f, m in _entry_points(modules):
        todo += [m] if m else _imported(f, None, modules)
    seen: set[str] = set()
    while todo:
        m = todo.pop()
        if m not in seen:
            seen.add(m)
            todo += _imported(modules[m], m, modules)
    return seen


def test_every_package_module_is_reached_from_a_cdc_entry_point():
    modules = _package_modules()
    rel = {m[len(PKG) + 1:] for m in modules if m != PKG}
    reached = {m[len(PKG) + 1:] for m in _reached(modules) if m != PKG}
    unreached = sorted(rel - reached - set(KEPT))
    assert not unreached, (
        f"modules no CDC entry point imports: {unreached}; delete them, or "
        "name them in KEPT with the reason they stay")
    # a kept module that became reachable, or is gone, is a stale entry
    assert not set(KEPT) & reached, sorted(set(KEPT) & reached)
    assert set(KEPT) <= rel, sorted(set(KEPT) - rel)
