"""A strict exposition-text parser: the test-side reference for ``render``.

The product only renders the Prometheus text format (``GET /metrics``);
nothing in it parses the text back.  Tests parse it here to hold the
renderer's label escaping and number format to what a Prometheus reads.
"""

import re

from repro.metrics import MetricPoint

# The label section runs to the *last* closing brace, so label values may
# contain braces; the sample value after it never does.
_LINE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})?\s+(\S+)$")
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')
_ESCAPED = re.compile(r"\\(.)")


def parse_exposition(text: str) -> list[MetricPoint]:
    """Every sample line of *text*; a malformed line raises ``ValueError``."""
    points = []
    for line in text.splitlines():
        if not line:
            continue
        match = _LINE.match(line)
        if match is None:
            raise ValueError(f"malformed exposition line: {line!r}")
        name, labels, value = match.groups()
        points.append(
            MetricPoint(
                name,
                {key: _ESCAPED.sub(r"\1", raw) for key, raw in _LABEL.findall(labels or "")},
                float(value),
            )
        )
    return points
