"""Schema-evolution policy: rename / add-column / widen.

Mirrors the reference's three schema primitives:
- rename: ``RenameTransformation`` copies each present src column into dest
  (`/root/reference/tfdata/transform/transformation.go:54-76`);
- declared per-column coercion with widening, driven by a TypesMap
  (`/root/reference/tfdata/transform/transformer.go:120-204`);
- undeclared columns don't break the pipeline — the reference JSON-marshals
  them to a BytesList fallback (`transformer.go:134-142`); here unknown
  columns are either kept (add-column evolution: the lake schema grows, old
  rows read back null) or dropped, per ``extra_columns``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.compute as pc

_WIDEN_OK: dict[str, set[str]] = {
    "int64": {"int8", "int16", "int32", "uint8", "uint16", "uint32"},
    "int32": {"int8", "int16", "uint8", "uint16"},
    "float64": {"float32", "int8", "int16", "int32"},
    "float32": {"int8", "int16"},
}


def _can_widen(src: pa.DataType, dst: pa.DataType) -> bool:
    if src.equals(dst):
        return True
    if pa.types.is_list(src) and pa.types.is_list(dst):
        return _can_widen(src.value_type, dst.value_type)
    return str(src) in _WIDEN_OK.get(str(dst), set())


@dataclass
class SchemaPolicy:
    """Normalizes incoming event batches to the declared target schema."""

    target: pa.Schema
    renames: dict[str, str] = field(default_factory=dict)  # src -> dest
    extra_columns: str = "keep"  # keep | drop | error

    def normalize(self, t: pa.Table) -> pa.Table:
        # 1) rename: copy src into dest if present (src removed here — in
        #    event streams the renamed column replaces the old one; the
        #    reference's keep-src semantics live in stages/transforms.rename)
        for src, dest in self.renames.items():
            if src in t.column_names and dest not in t.column_names:
                i = t.column_names.index(src)
                t = t.set_column(i, dest, t.column(i))
        # 2) add-column: declared columns absent from the batch -> nulls
        for f in self.target:
            if f.name not in t.column_names:
                t = t.append_column(f.name, pa.nulls(len(t), f.type))
        # 3) widen / coerce declared columns
        for f in self.target:
            col = t.column(f.name)
            if col.type.equals(f.type):
                continue
            if not _can_widen(col.type, f.type):
                raise TypeError(
                    f"column {f.name!r}: cannot narrow/convert {col.type} -> {f.type}"
                )
            t = t.set_column(t.column_names.index(f.name), f.name, pc.cast(col, f.type))
        # 4) undeclared extras
        extras = [c for c in t.column_names if c not in self.target.names]
        if extras:
            if self.extra_columns == "drop":
                t = t.drop_columns(extras)
            elif self.extra_columns == "error":
                raise ValueError(f"undeclared columns: {extras}")
        # stable order: declared first, extras after
        order = list(self.target.names) + [c for c in t.column_names if c not in self.target.names]
        return t.select(order)
