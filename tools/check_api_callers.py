#!/usr/bin/env python3
"""Fail when lib/'s interface exports surface that no caller uses.

For every lib/*/*.mli, each optional `?label` must be passed as `~label` or
`?label` in some .ml outside that module's own, and each top-level `val`
must be named in some .ml outside it.  The .ml files searched are those
under lib, bin, e2ebench, bench, test and examples, with comments removed;
a test is a caller.  A name counts as used wherever the identifier
appears, so the check catches names nothing mentions, not every unused
export.  KEPT lists the items kept on purpose, each with its reason.

Usage: python3 tools/check_api_callers.py
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIRS = ["lib", "bin", "e2ebench", "bench", "test", "examples"]

KEPT = {
    "Bgp.loc_rib": "examples/bgp_mux_demo.ml reads the Loc-RIB",
    "Calibration.syscall_us": "documents the paper's 5.1.1 syscall cost",
    "Calibration.click_base_us": "documents the paper's 5.1.1 Click cost",
    "Calibration.click_per_byte_us": "documents the paper's 5.1.1 Click cost",
    "Iias.?click_burst": "batched Click input; its fate is ROADMAP item 5's",
    "Iias.route_batch": "batched Click input; its fate is ROADMAP item 5's",
    "Iias.fib_memo_stats": "e2ebench reads it for click.fib_memo_hit_ratio",
    "Engine.set_profiling": "e2ebench times host cost per layer with it",
}

COMMENT = re.compile(r"\(\*(?:(?!\(\*|\*\)).)*\*\)", re.S)


def strip_comments(text):
    while True:
        stripped = COMMENT.sub(" ", text)
        if stripped == text:
            return text
        text = stripped


def main():
    words, labels = {}, {}  # identifier -> the .ml files naming/passing it
    for d in DIRS:
        for ml in sorted((ROOT / d).rglob("*.ml")):
            if "_build" in ml.parts:
                continue
            text = strip_comments(ml.read_text())
            for w in set(re.findall(r"[A-Za-z_][A-Za-z0-9_']*", text)):
                words.setdefault(w, set()).add(ml)
            for w in set(re.findall(r"[~?]([a-z_][A-Za-z0-9_']*)", text)):
                labels.setdefault(w, set()).add(ml)
    errors = []
    for mli in sorted((ROOT / "lib").glob("*/*.mli")):
        own = mli.with_suffix(".ml")
        mod = mli.stem.capitalize()
        text = strip_comments(mli.read_text())
        items = re.findall(r"^val ([a-z_][\w']*)", text, re.M)
        items += ["?" + l for l in re.findall(r"\?([a-z_][\w']*):", text)]
        for name in dict.fromkeys(items):
            index = labels if name[0] == "?" else words
            key = f"{mod}.{name}"
            if key not in KEPT and not index.get(name.lstrip("?"), set()) - {own}:
                errors.append(f"{mli.relative_to(ROOT)}: {key} has no caller")
    for e in errors:
        print(e, file=sys.stderr)
    if errors:
        print(f"\n{len(errors)} unused interface item(s)", file=sys.stderr)
        return 1
    print(f"every lib/ interface item has a caller ({len(KEPT)} kept)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
