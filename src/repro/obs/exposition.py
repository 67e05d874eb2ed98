"""Prometheus text exposition: deterministic rendering and a tiny parser.

:func:`render_families` turns a :meth:`MetricsRegistry.snapshot` document
into the Prometheus text format — ``# HELP`` / ``# TYPE`` per family,
families sorted by name, histogram buckets rendered **cumulative** with the
mandatory ``+Inf`` bucket and ``_sum`` / ``_count`` samples.

:func:`parse_exposition` is the deliberately small pure-python reader used
by the test-suite round-trips and ``benchmarks/obs_smoke.py`` — it
understands exactly what the renderer emits (plus the bare ``/metrics``
gauge and rate lines), nothing more.
"""

from __future__ import annotations

__all__ = ["parse_exposition", "render_families"]


def _format_value(value: float) -> str:
    if isinstance(value, float) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    # the shortest exact form: a scrape parses back the value that was
    # recorded, so cross-shard sums can be checked to the last bit
    return repr(value)


def _format_labels(labelnames: list[str], labelvalues: list[str]) -> str:
    if not labelnames:
        return ""
    pairs = ",".join(
        f'{name}="{value}"' for name, value in zip(labelnames, labelvalues)
    )
    return "{" + pairs + "}"


def _label_suffix(labelnames: list[str], labelvalues: list[str], extra: str) -> str:
    pairs = [
        f'{name}="{value}"' for name, value in zip(labelnames, labelvalues)
    ]
    pairs.append(extra)
    return "{" + ",".join(pairs) + "}"


def render_families(snapshot: dict) -> list[str]:
    """Render a metrics snapshot to exposition-format lines (sorted)."""
    lines: list[str] = []
    for name in sorted(snapshot):
        doc = snapshot[name]
        labelnames = list(doc.get("labelnames", ()))
        lines.append(f"# HELP {name} {doc['help']}")
        lines.append(f"# TYPE {name} {doc['type']}")
        for series in doc["series"]:
            labelvalues = list(series["labels"])
            if doc["type"] == "histogram":
                cumulative = 0
                for bound, bucket in zip(doc["le"], series["buckets"]):
                    cumulative += bucket
                    suffix = _label_suffix(labelnames, labelvalues, f'le="{bound:g}"')
                    lines.append(f"{name}_bucket{suffix} {cumulative}")
                suffix = _label_suffix(labelnames, labelvalues, 'le="+Inf"')
                lines.append(f"{name}_bucket{suffix} {series['count']}")
                label_str = _format_labels(labelnames, labelvalues)
                lines.append(f"{name}_sum{label_str} {_format_value(series['sum'])}")
                lines.append(f"{name}_count{label_str} {series['count']}")
            else:
                label_str = _format_labels(labelnames, labelvalues)
                lines.append(f"{name}{label_str} {_format_value(series['value'])}")
    return lines


def _parse_labels(text: str) -> dict[str, str]:
    labels: dict[str, str] = {}
    body = text.strip()
    if not body:
        return labels
    for pair in body.split(","):
        key, _, raw = pair.partition("=")
        labels[key.strip()] = raw.strip().strip('"')
    return labels


def parse_exposition(text: str) -> dict[str, dict]:
    """Parse exposition text into ``{family: {type, help, samples}}``.

    ``samples`` is a list of ``(sample_name, labels_dict, value)`` tuples;
    bare lines with no preceding ``# TYPE`` are grouped under their own
    name with type ``"untyped"`` (the flat ``/metrics`` gauges parse this way).
    """
    families: dict[str, dict] = {}

    def family_for(sample_name: str) -> dict:
        base = sample_name
        for suffix in ("_bucket", "_sum", "_count"):
            if base.endswith(suffix) and base[: -len(suffix)] in families:
                base = base[: -len(suffix)]
                break
        doc = families.get(base)
        if doc is None:
            doc = families.setdefault(
                base, {"type": "untyped", "help": "", "samples": []}
            )
        return doc

    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 3 and parts[1] in ("HELP", "TYPE"):
                name = parts[2]
                doc = families.setdefault(
                    name, {"type": "untyped", "help": "", "samples": []}
                )
                if parts[1] == "TYPE":
                    doc["type"] = parts[3] if len(parts) > 3 else "untyped"
                else:
                    doc["help"] = parts[3] if len(parts) > 3 else ""
            continue
        name_part, _, value_part = line.rpartition(" ")
        if not name_part:
            continue
        if "{" in name_part:
            sample_name, _, label_part = name_part.partition("{")
            labels = _parse_labels(label_part.rstrip("}"))
        else:
            sample_name, labels = name_part, {}
        try:
            value = float(value_part)
        except ValueError:
            continue
        family_for(sample_name)["samples"].append((sample_name, labels, value))
    return families
