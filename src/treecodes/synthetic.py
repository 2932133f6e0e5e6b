"""Synthetic codes for exercising the certifiers: prefix-determined codes that
satisfy every immediacy condition, and targeted ablations that break exactly
one tagged block's decodability.
"""

from __future__ import annotations

from .core import Message, TreeCode
from .partitions import TaggedBlock
from .rng import DetStream


def scrambled_prefix_code(n: int, seed: int) -> TreeCode:
    """Binary-input code whose depth-j symbol is an injective scrambling of
    the whole prefix: equivalent to the full-prefix code for every equality or
    distance question (any two codewords disagree everywhere past their
    divergence point), but with seed-dependent labels."""
    odds = []
    masks = []
    stream = DetStream(seed, "scramble")
    for j in range(1, n + 1):
        size = 1 << j
        odds.append(stream.randbelow(size) | 1)
        masks.append(stream.randbelow(size))

    def char(prefix: Message) -> int:
        j = len(prefix)
        v = 0
        for b in prefix:
            v = (v << 1) | b
        return ((v * odds[j - 1]) & ((1 << j) - 1)) ^ masks[j - 1]

    return TreeCode(n, 2, 1 << n, char, name=f"scrambled[{n},{seed}]")


def mask_block_code(base: TreeCode, block: TaggedBlock) -> TreeCode:
    """Ablate one tagged block: its rg symbols are blind to its lf inputs
    (those inputs are zeroed before encoding).  Online by construction; two
    messages differing only inside lf get identical symbols on rg, so
    decodability fails exactly where intended."""
    lf = frozenset(block.lf)
    rg = frozenset(block.rg)
    fn = base.char_fn

    def char(prefix: Message) -> int:
        if len(prefix) in rg:
            prefix = tuple(0 if (i + 1) in lf else v for i, v in enumerate(prefix))
        return fn(prefix)

    return TreeCode(base.n, base.sigma_in, base.sigma_out, char,
                    name=f"{base.name}|masked(lf={sorted(lf)})")
