"""Experiment results: rows plus text/JSON/CSV renderings."""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import typing as t

from repro.errors import ConfigurationError

Row = dict[str, t.Any]


def value(rows: t.Iterable[Row], column: str, **filters: t.Any) -> t.Any:
    """The value of *column* in the one row matching all equality *filters*."""
    matches = [row for row in rows
               if all(row.get(k) == v for k, v in filters.items())]
    if len(matches) != 1:
        raise ConfigurationError(f"{filters} matched {len(matches)} rows")
    return matches[0][column]


@dataclasses.dataclass(frozen=True)
class ExperimentResult:
    """Rows for one figure/table, ready to print or assert on.

    ``meta`` holds run metadata that is *about* the run rather than
    part of it — wall-clock seconds, the config fingerprint, the
    campaign job key.  It is rendered and serialised but deliberately
    kept out of ``rows`` so that repeated runs of the same experiment
    produce bit-identical rows (the campaign cache depends on that).
    """

    experiment: str
    title: str
    rows: tuple[Row, ...]
    notes: tuple[str, ...] = ()
    meta: dict[str, t.Any] = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.rows:
            raise ConfigurationError(f"{self.experiment}: no rows produced")

    def columns(self) -> list[str]:
        cols: dict[str, None] = {}
        for row in self.rows:
            for key in row:
                cols.setdefault(key, None)
        return list(cols)

    def select(self, **filters: t.Any) -> list[Row]:
        """Rows matching all equality filters."""
        out = []
        for row in self.rows:
            if all(row.get(k) == v for k, v in filters.items()):
                out.append(row)
        return out

    def value(self, column: str, **filters: t.Any) -> t.Any:
        """The single value of *column* in the unique matching row."""
        try:
            return value(self.rows, column, **filters)
        except ConfigurationError as exc:
            raise ConfigurationError(f"{self.experiment}: {exc}") from None

    def render(self) -> str:
        """An aligned plain-text table with title and notes."""
        cols = self.columns()
        header = [str(c) for c in cols]
        body = [[_fmt(row.get(c)) for c in cols] for row in self.rows]
        widths = [
            max(len(header[i]), *(len(r[i]) for r in body))
            for i in range(len(cols))
        ]
        lines = [f"== {self.title} =="]
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in body:
            lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"note: {note}")
        if self.meta:
            pairs = "  ".join(
                f"{k}={_fmt(self.meta[k])}" for k in sorted(self.meta)
            )
            lines.append(f"meta: {pairs}")
        return "\n".join(lines)

    def with_meta(self, **entries: t.Any) -> "ExperimentResult":
        """A copy with *entries* merged into ``meta``."""
        return dataclasses.replace(self, meta={**self.meta, **entries})

    def to_json(self) -> str:
        """A machine-readable dump (experiment, title, rows, notes, meta)."""
        return json.dumps(
            {
                "experiment": self.experiment,
                "title": self.title,
                "rows": list(self.rows),
                "notes": list(self.notes),
                "meta": self.meta,
            },
            indent=2,
            default=str,
        )

    @classmethod
    def from_json(cls, text: str) -> "ExperimentResult":
        """Rebuild a result from :meth:`to_json` output.

        The round trip is exact for JSON-native row values (str, int,
        float, bool, None) — which is all any registered experiment
        produces — so a result that went through the campaign cache
        compares equal, row for row, to the freshly computed one.
        """
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"malformed result JSON: {exc}") from None
        try:
            return cls(
                experiment=data["experiment"],
                title=data["title"],
                rows=tuple(dict(row) for row in data["rows"]),
                notes=tuple(data.get("notes", ())),
                meta=dict(data.get("meta", {})),
            )
        except (KeyError, TypeError) as exc:
            raise ConfigurationError(
                f"result JSON missing fields: {exc}"
            ) from None

    def to_csv(self) -> str:
        """The rows as CSV (notes are not included)."""
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=self.columns())
        writer.writeheader()
        for row in self.rows:
            writer.writerow({k: row.get(k, "") for k in self.columns()})
        return buffer.getvalue()


def _fmt(value: t.Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value == 0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1000 or magnitude < 0.001:
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)
