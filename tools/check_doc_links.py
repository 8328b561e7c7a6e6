#!/usr/bin/env python3
"""Check relative links and #anchors in the repo's markdown documentation.

Scans README.md and docs/*.md for inline markdown links. For every
relative link it asserts the target file exists; for every fragment
(`path#anchor` or in-page `#anchor`) it asserts the target declares a
heading whose GitHub-style slug matches: a markdown heading in a `.md`
file, a module-doc heading (`//! # The memo` is `#the-memo`) in a `.rs`
file. External links (http/https/mailto) are not fetched — CI must stay
offline-clean.

Exit status is the number of broken links (0 = all good).
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]

# Inline links only: [text](target). Reference-style links are not used
# in this repo. Images share the syntax; the target check is identical.
LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
# Fenced code blocks must not contribute links (ASCII diagrams contain
# bracket-paren sequences that look like links).
FENCE = re.compile(r"^(```|~~~)")


def slugify(heading: str) -> str:
    """GitHub's anchor algorithm: lowercase, drop punctuation, dash spaces."""
    text = re.sub(r"`([^`]*)`", r"\1", heading.strip())
    # Strip markdown emphasis before slugging.
    text = re.sub(r"[*_]", "", text)
    text = text.lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def headed_lines(path: Path):
    """The lines a heading may start: every line of a markdown file, the
    module docs (`//!` lines, prefix removed) of a Rust file."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if path.suffix != ".rs":
        return lines
    return [line[4:] if line.startswith("//! ") else line[3:]
            for line in lines if line.startswith("//!")]


def anchors(path: Path) -> set:
    out, counts, in_fence = set(), {}, False
    for line in headed_lines(path):
        if FENCE.match(line):
            in_fence = not in_fence
            continue
        if in_fence or not line.startswith("#"):
            continue
        m = re.match(r"#{1,6}\s+(.*)", line)
        if not m:
            continue
        slug = slugify(m.group(1))
        n = counts.get(slug, 0)
        counts[slug] = n + 1
        out.add(slug if n == 0 else f"{slug}-{n}")
    return out


def links(path: Path):
    in_fence = False
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if FENCE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for m in LINK.finditer(line):
            yield lineno, m.group(1)


def main() -> int:
    anchor_cache = {}
    broken = 0
    for doc in DOCS:
        for lineno, target in links(doc):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path_part, _, fragment = target.partition("#")
            dest = (doc.parent / path_part).resolve() if path_part else doc
            where = f"{doc.relative_to(ROOT)}:{lineno}"
            if not dest.exists():
                print(f"{where}: broken link {target!r} (no such file)")
                broken += 1
                continue
            if fragment and dest.suffix in (".md", ".rs"):
                if dest not in anchor_cache:
                    anchor_cache[dest] = anchors(dest)
                if fragment not in anchor_cache[dest]:
                    print(f"{where}: broken anchor {target!r} "
                          f"(no heading slugs to #{fragment})")
                    broken += 1
    checked = ", ".join(str(d.relative_to(ROOT)) for d in DOCS)
    print(f"checked {checked}: {broken} broken link(s)")
    return broken


if __name__ == "__main__":
    sys.exit(main())
