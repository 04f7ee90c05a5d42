"""Script-aware text segmentation.

Clinical exam text mixes CJK prose with Latin drug names, abbreviations,
and numbers.  Word counting, metric tokenization, and token estimation all
need to agree on where CJK ends and Latin begins, so they share the run
segmentation implemented here.
"""

from __future__ import annotations

import math
import re

# Unicode blocks treated as CJK.  Fullwidth forms and CJK punctuation are
# included on purpose: one visible glyph, one unit.
_CJK_RANGES = (
    (0x3000, 0x303F),    # CJK symbols and punctuation
    (0x3040, 0x30FF),    # hiragana, katakana
    (0x3400, 0x4DBF),    # CJK unified ideographs extension A
    (0x4E00, 0x9FFF),    # CJK unified ideographs
    (0xAC00, 0xD7AF),    # hangul syllables
    (0xF900, 0xFAFF),    # CJK compatibility ideographs
    (0xFF00, 0xFFEF),    # fullwidth and halfwidth forms
    (0x20000, 0x2FFFF),  # CJK extensions B and beyond
)

# The same blocks as one character class, so each maximal run is one regex
# match: group 1 for a CJK run, group 2 for any other.
_CJK_CLASS = "".join(f"{chr(lo)}-{chr(hi)}" for lo, hi in _CJK_RANGES)
_SCRIPT_RUN = re.compile(f"([{_CJK_CLASS}]+)|([^{_CJK_CLASS}]+)")

# Characters of a non-CJK run are grouped roughly four to a token, matching
# the coarse subword cost of Latin text in chat-model tokenizers.
LATIN_CHARS_PER_TOKEN = 4


def is_cjk(ch: str) -> bool:
    """True when the single character ``ch`` falls in a CJK block."""
    cp = ord(ch)
    return any(lo <= cp <= hi for lo, hi in _CJK_RANGES)


def script_runs(text: str) -> list[tuple[bool, str]]:
    """Split ``text`` into maximal runs of same-script characters.

    Returns ``(run_is_cjk, run_text)`` pairs in order; concatenating the
    run texts reproduces the input exactly.
    """
    return [(m.lastindex == 1, m.group()) for m in _SCRIPT_RUN.finditer(text)]


def count_words(text: str) -> int:
    """Count words: each CJK character is one word, Latin runs count
    whitespace-delimited tokens."""
    total = 0
    for run_is_cjk, run in script_runs(text):
        total += len(run) if run_is_cjk else len(run.split())
    return total


def tokenize(text: str) -> list[str]:
    """Tokens for overlap metrics: one token per CJK character, one per
    whitespace-delimited word elsewhere."""
    tokens: list[str] = []
    for run_is_cjk, run in script_runs(text):
        if run_is_cjk:
            tokens.extend(run)
        else:
            tokens.extend(run.split())
    return tokens


def estimate_tokens(text: str) -> int:
    """Upper-bound style token estimate used for prompt budgeting.

    CJK runs cost one token per character; every other run costs
    ``ceil(len/4)``.  The estimate is monotone under concatenation and
    never increases when two texts are joined (subadditive), which keeps
    budget checks safe to apply piecewise.
    """
    total = 0
    for run_is_cjk, run in script_runs(text):
        if run_is_cjk:
            total += len(run)
        else:
            total += math.ceil(len(run) / LATIN_CHARS_PER_TOKEN)
    return total
