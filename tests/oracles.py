"""Independent reference implementations used to check the real ones.

Everything here is deliberately naive: plain loops, no indexes, no shared
helpers with the code under test beyond the token normalization contract.
"""

from __future__ import annotations

from itertools import combinations

from budgetqa.text import token_key


def _normalize(word: str) -> str:
    return token_key(word)


# --------------------------------------------------------------------------
# Search: linear scans over raw document text.


def scan_phrase(docs, phrase_tokens):
    """(doc_id, position) for every contiguous occurrence, scanning each doc."""
    target = [_normalize(t) for t in phrase_tokens]
    hits = []
    for doc in docs:
        words = [_normalize(w) for w in doc.text.split()]
        for start in range(len(words) - len(target) + 1):
            if words[start : start + len(target)] == target:
                hits.append((doc.id, start))
    hits.sort()
    return hits


def scan_conjunctive(docs, parts):
    """Doc ids containing all parts: phrases contiguous, terms anywhere."""
    matched = []
    for doc in docs:
        words = [_normalize(w) for w in doc.text.split()]
        ok = True
        for part in parts:
            target = [_normalize(t) for t in part.split()]
            if len(target) == 1:
                if target[0] not in words:
                    ok = False
                    break
            else:
                found = any(
                    words[s : s + len(target)] == target
                    for s in range(len(words) - len(target) + 1)
                )
                if not found:
                    ok = False
                    break
        if ok:
            matched.append(doc.id)
    return sorted(matched)


# --------------------------------------------------------------------------
# Mining: recount every n-gram by hand.


def count_ngrams(snippets, weights, exclude=(), stop=frozenset(), max_n=3):
    """Map n-gram key tuple -> (score, support), recounted naively."""
    excluded = {_normalize(t) for t in exclude}
    totals: dict[tuple, list[float]] = {}
    for snippet in snippets:
        words = [w.strip(".,;:!?\"'()[]{}<>`«»“”‘’–—") for w in snippet.text.split()]
        words = [w for w in words if w]
        keys = [_normalize(w) for w in words]
        for n in range(1, max_n + 1):
            for i in range(len(keys) - n + 1):
                gram = tuple(keys[i : i + n])
                if any(not g for g in gram):
                    continue
                if any(g in excluded for g in gram):
                    continue
                if gram[0] in stop or gram[-1] in stop:
                    continue
                entry = totals.setdefault(gram, [0.0, 0])
                entry[0] += weights[snippet.rewrite_index]
                entry[1] += 1
    return {gram: (score, support) for gram, (score, support) in totals.items()}


def remined_counts(rewrites_used, snippets, exclude, stop):
    """(numngrams, {weight: count}) for a run prefix by mining it in full,
    then mining the snippets of each rewrite weight again on their own: the
    reference for the counts that one mining pass reports."""
    weights = {i: r.weight for i, r in enumerate(rewrites_used)}
    numngrams = len(count_ngrams(snippets, weights, exclude, stop))
    per_weight = {}
    for weight in {r.weight for r in rewrites_used}:
        subset = [s for s in snippets if rewrites_used[s.rewrite_index].weight == weight]
        per_weight[weight] = len(count_ngrams(subset, weights, exclude, stop))
    return numngrams, per_weight


# --------------------------------------------------------------------------
# Tiling: exhaustive exploration of merge orders.


def _overlap(a: tuple, b: tuple) -> int:
    for length in range(min(len(a), len(b)), 0, -1):
        if a[-length:] == b[:length]:
            return length
    return 0


def all_fixpoints(cands):
    """Every fixpoint reachable by any sequence of legal merges.

    Candidates are (key_tuple, score) pairs; returns a set of frozen
    multisets of (key, score) pairs. Exponential, for tiny inputs only.
    """
    seen = set()
    fixpoints = set()

    def explore(state: tuple):
        if state in seen:
            return
        seen.add(state)
        merged_any = False
        items = list(state)
        for i, (ka, sa) in enumerate(items):
            for j, (kb, sb) in enumerate(items):
                if i == j:
                    continue
                length = _overlap(ka, kb)
                if not length:
                    continue
                merged_any = True
                new_items = [it for idx, it in enumerate(items) if idx not in (i, j)]
                new_items.append((ka + kb[length:], sa + sb))
                explore(tuple(sorted(new_items)))
        if not merged_any:
            fixpoints.add(state)

    explore(tuple(sorted((tuple(k), s) for k, s in cands)))
    return fixpoints


def stepwise_best_fixpoint(cands):
    """The fixpoint reached by always merging the best pair, where best is
    highest combined score, then longest overlap, then smallest key pair.
    Recomputed from scratch every step."""
    pool = [(tuple(k), s) for k, s in cands]
    while True:
        options = []
        for i, (ka, sa) in enumerate(pool):
            for j, (kb, sb) in enumerate(pool):
                if i == j:
                    continue
                length = _overlap(ka, kb)
                if length:
                    options.append((sa + sb, length, (ka, kb), i, j))
        if not options:
            return sorted(pool, key=lambda item: (-item[1], item[0]))
        options.sort(key=lambda o: (-o[0], -o[1], o[2]))
        _, length, _, i, j = options[0]
        ka, sa = pool[i]
        kb, sb = pool[j]
        merged = (ka + kb[_overlap(ka, kb):], sa + sb)
        pool = [item for idx, item in enumerate(pool) if idx not in (i, j)]
        pool.append(merged)


# --------------------------------------------------------------------------
# Trees: route cases to leaves by evaluating split predicates directly.


def route_cases(tree, cases):
    """Map id(leaf) -> list of cases, routed by brute predicate evaluation."""
    from budgetqa.tree import Leaf

    buckets: dict[int, list] = {}

    def walk(node, subset):
        if isinstance(node, Leaf):
            buckets.setdefault(id(node), []).extend(subset)
            return
        left, right = [], []
        for case in subset:
            value = case.features[node.feature]
            if node.kind == "numeric":
                (left if float(value) <= node.value else right).append(case)
            else:
                (left if value == node.value else right).append(case)
        walk(node.left, left)
        walk(node.right, right)

    walk(tree.root, list(cases))
    return buckets


# --------------------------------------------------------------------------
# Controller: exhaustive argmax over thresholds.


def best_budget(probs: dict[int, float], k: float, c: float):
    """(n or None, nets) by checking every threshold directly."""
    nets = {n: p * k * c - n * c for n, p in probs.items()}
    candidates = sorted(nets, key=lambda n: (-nets[n], n))
    best = candidates[0]
    if nets[best] < 0:
        return None, nets
    return best, nets


def best_subset_score(scores, n):
    """Max score sum over all n-subsets (for checking top-n orderings)."""
    if n >= len(scores):
        return sum(scores)
    return max(sum(combo) for combo in combinations(scores, n))
