#!/usr/bin/env python3
"""Doc-drift gate: docs/PROTOCOL.md must track src/service/Protocol.h.

Usage: check_protocol_docs.py [REPO_ROOT]

The wire protocol is documented by hand (docs/PROTOCOL.md) and defined
by code (src/service/Protocol.h). Hand-written specs rot the day someone
adds a request kind or status code and forgets the doc, so CI greps the
header's surface out of the source of truth and requires every name to
appear in the spec:

  - every enumerator of RequestKind, StatusCode and FrameError
    (except the None sentinel);
  - every framing constant (ProtocolMagic, ProtocolVersion,
    MaxFramePayloadBytes, FrameHeaderBytes);
  - every field of every wire layout, read from the one field list each
    header and body declares (`template <typename IO> void fields(IO &F,
    T &V) { F(V.A, V.B.C); }` — the last member name of each entry).
    Fields match case-insensitively: the spec writes `numModules` for
    the code's `NumModules`.

This is deliberately a *presence* check, not a semantics check: it
cannot prove the prose is right, only that the spec at least mentions
everything the header defines — which is exactly the failure mode of
drift (new code, stale doc). Renames fail loudly on both sides.

Exits 0 when the spec covers the header, 1 with one line per missing
name otherwise.
"""

import re
import sys
from pathlib import Path

ENUMS = ("RequestKind", "StatusCode", "FrameError")
CONSTANT_RE = re.compile(
    r"^constexpr\s+\w+(?:_t)?\s+(\w+)\s*=", re.MULTILINE)
ENUM_RE = re.compile(
    r"enum\s+class\s+(\w+)\s*:\s*\w+\s*\{(.*?)\};", re.DOTALL)
ENUMERATOR_RE = re.compile(r"^\s*(\w+)\s*[=,]", re.MULTILINE)
FIELD_LIST_RE = re.compile(
    r"void\s+fields\s*\(\s*IO\s*&\s*\w*\s*,\s*(\w+)\s*&\s*(\w*)\s*\)"
    r"\s*\{(.*?)\}", re.DOTALL)


def header_surface(header_text):
    """Yields (context, name) pairs the spec must mention."""
    enums = dict(ENUM_RE.findall(header_text))
    for enum in ENUMS:
        if enum not in enums:
            # The header lost a whole enum: that is a rename/refactor the
            # gate itself must be updated for, so fail loudly.
            yield ("Protocol.h", enum)
            continue
        yield ("enum", enum)
        for name in ENUMERATOR_RE.findall(enums[enum]):
            if name != "None":  # internal sentinel, not a wire value
                yield (enum, name)
    for name in CONSTANT_RE.findall(header_text):
        yield ("constant", name)
    layouts = FIELD_LIST_RE.findall(header_text)
    if not layouts:
        # The field lists moved or changed shape: update the gate.
        yield ("Protocol.h", "fields")
    for layout, var, body in layouts:
        if not var:
            continue  # an empty layout names no field
        for path in re.findall(r"\b" + var + r"((?:\.\w+)+)", body):
            yield ("field:" + layout, path.split(".")[-1])


def mentioned(context, name, spec_text):
    """Whether the spec mentions name (field names case-insensitively)."""
    flags = re.IGNORECASE if context.startswith("field:") else 0
    return re.search(r"\b" + re.escape(name) + r"\b", spec_text, flags)


def main(argv):
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).parent.parent
    header = root / "src" / "service" / "Protocol.h"
    spec = root / "docs" / "PROTOCOL.md"
    try:
        header_text = header.read_text()
    except OSError as e:
        print(f"error: cannot read {header}: {e}")
        return 1
    try:
        spec_text = spec.read_text()
    except OSError as e:
        print(f"error: cannot read {spec}: {e}")
        return 1

    missing = []
    checked = 0
    for context, name in header_surface(header_text):
        checked += 1
        if not mentioned(context, name, spec_text):
            missing.append((context, name))
    for context, name in missing:
        print(f"drift: {context}::{name} is defined in "
              f"src/service/Protocol.h but never mentioned in "
              f"docs/PROTOCOL.md")
    if missing:
        print(f"\nprotocol doc-drift gate FAILED: {len(missing)} of "
              f"{checked} names undocumented — update docs/PROTOCOL.md")
        return 1
    print(f"protocol doc-drift gate passed: all {checked} wire names "
          f"appear in docs/PROTOCOL.md")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
