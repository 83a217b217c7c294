"""Bisimilar nodes of a binarized grammar.

A binarized grammar here is a set of nodes 0..size-1, the terminal bodies
of each node and its rules (A, B, C) for A -> B C.  Two nodes are
bisimilar when they lie in one block of the coarsest partition whose nodes
have the same terminal bodies and the same set of pairs (block of B, block
of C) over their rules.  Bisimilar nodes derive the same words, so
`cfg.cnf_of` merges them.  The partition is found in O(m log n) for m
rules.
"""

from __future__ import annotations


def bisimilar_blocks(size, term_bodies, binary):
    """(block, reps, rules): block[v] is node v's block in the coarsest
    partition of the nodes 0..size-1 in which the nodes of one block have
    the same terminal bodies and the same set of pairs (block B, block C)
    over their rules (A, B, C); reps lists each block's least node, blocks
    are numbered in that order, and rules[v] lists v's rules.

    A node that reaches no cycle is never bisimilar to one that does.  The
    first kind are settled children first (Kahn's order), each by the key
    of its bodies over its children's blocks, in O(m) for m rules; the rest
    are refined by `_refine`, which alone would find the same partition at
    about four times the cost on an acyclic product table.
    """
    rules = [[] for _ in range(size)]
    parents = [[] for _ in range(size)]  # node -> the head of each use
    for r in binary:
        a, b, c = r
        rules[a].append(r)
        parents[b].append(a)
        parents[c].append(a)
    unmet = [2 * len(got) for got in rules]  # uses of unsettled children
    label = [-1] * size
    keys: dict = {}
    ready = [v for v in range(size) if not unmet[v]]
    for v in ready:
        got = rules[v]
        t = term_bodies.get(v)
        # one pair of blocks is its own key, which spares most nodes two
        # frozensets; bodies of any other shape key as (terminals, pairs)
        if t is None and len(got) == 1:
            _a, b, c = got[0]
            key = (label[b], label[c])
        else:
            pairs = {(label[b], label[c]) for _a, b, c in got}
            key = (pairs.pop() if t is None and len(pairs) == 1
                   else (frozenset(t or ()), frozenset(pairs)))
        label[v] = keys.setdefault(key, len(keys))
        for a in parents[v]:
            unmet[a] -= 1
            if not unmet[a]:
                ready.append(a)
    blocks = len(keys)
    if len(ready) < size:
        blocks = _refine([v for v in range(size) if label[v] < 0], label,
                         blocks, term_bodies, rules)
    if blocks == size:
        return range(size), range(size), rules
    index: dict = {}
    reps = []
    for v in range(size):
        if label[v] not in index:
            index[label[v]] = len(reps)
            reps.append(v)
    return [index[x] for x in label], reps, rules


def _refine(nodes, label, fresh, term_bodies, rules):
    """Set label[v], for each v of nodes, to its block of `bisimilar_blocks`'
    partition, numbered from fresh, and return the number of blocks then in
    use; label holds every other node's block already, and none of them is
    bisimilar to one of nodes.

    Hopcroft's "process the smaller half" (1971) in the counting form of
    Paige and Tarjan (1987, "Three partition refinement algorithms"), from
    the blocks of the nodes' terminal bodies.  The pairs are read through
    labels: a block split off keeps its parent's label until it is
    processed.  Each node counts its rules per pair of labels.  Processing
    a block relabels its nodes and moves the counts of the rules with a
    child among them; a parent's pairs then gain the new label's pairs and
    may lose old ones, and the parents of one block whose gains and losses
    agree stay together.  Every other part of a split block is at most half
    its size, so a node is relabeled at most log2(n) times, and the
    refinement takes O(m log n).
    """
    first: dict = {}
    for v in nodes:
        t = term_bodies.get(v)
        label[v] = first.setdefault(frozenset(t) if t else None,
                                    fresh + len(first))
    block = label[:]               # label[v] is what v's parents' pairs read
    members = [None] * fresh + [set() for _ in first]
    left = [[] for _ in label]     # node -> the rules (A, node, C)
    right = [[] for _ in label]    # node -> the rules (A, B, node), B != node
    counts = [None] * len(label)   # node -> label pair -> its rules
    for v in nodes:
        members[label[v]].add(v)
        got = counts[v] = {}
        for r in rules[v]:
            _a, b, c = r
            left[b].append(r)
            if c != b:
                right[c].append(r)
            pair = (label[b], label[c])
            got[pair] = got.get(pair, 0) + 1
    todo = []

    def split(y, parts):
        # members[y] holds the rest of y; the largest part keeps y, and every
        # other one is a new block to process
        if members[y]:
            parts.append(members[y])
        keep = max(parts, key=len)
        if keep is not members[y]:
            members[y] = set(keep)
        for part in parts:
            if part is not keep:
                todo.append(len(members))
                members.append(set(part))
                for v in part:
                    block[v] = len(members) - 1

    for y in range(fresh, len(members)):
        groups: dict = {}
        for v in members[y]:
            groups.setdefault(frozenset(counts[v]), []).append(v)
        if len(groups) > 1:
            members[y] = set()
            split(y, list(groups.values()))
    while todo:
        # the blocks split off so far are processed together: each new label
        # reads as one old label, so a pair that holds one reads as one old
        # pair, and the old pairs of one block's nodes agree
        was_label = {}
        for z in todo:
            inside = members[z]
            was_label[z] = label[next(iter(inside))]
            for v in inside:
                label[v] = z
        changed: dict = {}         # parent -> (pairs gained, pairs lost)
        for z in todo:
            for v in members[z]:
                rv = right[v]
                for uses in (left[v], rv):
                    for a, b, c in uses:
                        # a rule with both children relabeled is moved once,
                        # from its left child; a block of one node never
                        # splits, so its counts may go stale
                        if uses is rv and label[b] in was_label or len(
                                members[block[a]]) == 1:
                            continue
                        new = (label[b], label[c])
                        was = (was_label.get(new[0], new[0]),
                               was_label.get(new[1], new[1]))
                        got = counts[a]
                        delta = changed.get(a)
                        if delta is None:
                            delta = changed[a] = ([], [])
                        if got[was] == 1:
                            del got[was]
                            delta[1].append(was)
                        else:
                            got[was] -= 1
                        if new in got:
                            got[new] += 1
                        else:
                            got[new] = 1
                            delta[0].append(new)
        todo.clear()
        groups = {}
        for a, (gained, lost) in changed.items():
            groups.setdefault((block[a], frozenset(gained), frozenset(lost)),
                              []).append(a)
        by_block: dict = {}
        for key, part in groups.items():
            by_block.setdefault(key[0], []).append(part)
        for y, parts in by_block.items():
            if len(parts) > 1 or len(parts[0]) < len(members[y]):
                for part in parts:
                    members[y].difference_update(part)
                split(y, parts)
    for v in nodes:
        label[v] = block[v]
    return len(members)
