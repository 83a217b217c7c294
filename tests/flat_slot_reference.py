"""The per-word scan that `cfg.least_word` and `cfg.intersects` ran on a
flat table before a slot view picked its words off the table's cut
(`cfg.flat_cut`): every table word is asked of the space by `accepts`.
The prefix runs it read for a slot view with word slots in front held
only words that the view's `accepts` would refuse to leave out."""

from whsg.words import shortlex_key


def least_word(g, a):
    """The shortlex-least nonempty word of the flat g that `a` accepts."""
    return min((w for w in g.flat_words if w and a.accepts(w)),
               key=shortlex_key(g.rank), default=None)


def intersects(g, a) -> bool:
    return any(w and a.accepts(w) for w in g.flat_words)
