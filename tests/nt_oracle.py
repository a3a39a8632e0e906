"""The character-by-character N-Triples reader, kept as the reference.

:func:`parse_ntriples_line` is the statement reader that ``hetgraph`` used
before its one compiled term pattern: the fuzz test in
``tests/test_hetgraph.py`` compares the two line by line, result tuples and
``ParseError`` texts alike.
"""

from __future__ import annotations

from brgcn.hetgraph import ParseError


def parse_nt_term(text: str, lineno: int) -> tuple[str, str]:
    """Parse one N-Triples term; returns (name, remainder)."""
    text = text.lstrip()
    if text.startswith("<"):
        end = text.find(">")
        if end < 0:
            raise ParseError("unterminated IRI", lineno)
        return text[1:end], text[end + 1 :]
    if text.startswith("_:"):
        end = 2
        while end < len(text) and not text[end].isspace():
            end += 1
        return text[:end], text[end:]
    if text.startswith('"'):
        end = 1
        while end < len(text):
            if text[end] == "\\":
                end += 2
                continue
            if text[end] == '"':
                break
            end += 1
        if end >= len(text):
            raise ParseError("unterminated literal", lineno)
        end += 1
        # keep any datatype/language suffix as part of the node name
        while end < len(text) and not text[end].isspace():
            end += 1
        return text[:end], text[end:]
    raise ParseError(f"cannot parse term starting at {text[:20]!r}", lineno)


def parse_ntriples_line(line: str, lineno: int) -> tuple[str, str, str]:
    body = line.strip()
    if not body.endswith("."):
        raise ParseError("statement must end with '.'", lineno)
    body = body[:-1].rstrip()
    s, rest = parse_nt_term(body, lineno)
    p, rest = parse_nt_term(rest, lineno)
    o, rest = parse_nt_term(rest, lineno)
    if rest.strip():
        raise ParseError(f"trailing content {rest.strip()!r}", lineno)
    return s, p, o
