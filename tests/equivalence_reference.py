"""The two-way automaton equivalence test that `is_free` replaced, kept as a
reference: `equivalent` is a copy of the deleted `Nfa.equivalent`.
`is_free` asks only whether A+ - reps has a word, the one direction that can
fail when the representatives declare exactly the letters A; this test asks
both directions over the joint alphabet."""

from whsg import cfg
from whsg.words import merged


def equivalent(a, b):
    """(equal?, counterexample): the least word of a - b, else of b - a, in
    the order of a's alphabet and then b's.  Products drop the empty word,
    so it is tested first."""
    alphabet = merged(a.alphabet, b.alphabet)
    for x, y in ((a, b), (b, a)):
        if x.accepts(()) and not y.accepts(()):
            return False, ()
        g = cfg.Cfg.from_nfa(x)  # its words ordered by the joint alphabet
        w = cfg.least_word(cfg.Cfg(g.nonterminals, alphabet, g.start, g.productions),
                           y.complement(alphabet))
        if w is not None:
            return False, w
    return True, None
