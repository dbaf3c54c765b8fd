"""Independent reference implementations used to check the real ones.

Everything here is deliberately naive: plain loops, no indexes, no shared
helpers with the code under test beyond the token normalization contract.
The last section is the exception: the earlier code of the kernels that
were rewritten for speed, which reads the index and builds the package's
own types, so that a rewrite can be held to exactly the same output.
"""

from __future__ import annotations

import re
from itertools import combinations
from operator import attrgetter

from budgetqa.compose import DEFAULT_FILTERS, Candidates, NGramCandidate
from budgetqa.errors import WrongRewriteKind
from budgetqa.rewrite import _AUX_LIKE, _DETERMINERS, VIOLATION_PENALTY, QuestionType, RewriteKind
from budgetqa.search import Document
from budgetqa.text import default_stopwords, token_key, word_tokens

MAX_NGRAM = 3


def _normalize(word: str) -> str:
    return token_key(word)


def candidate_key(cand) -> tuple[str, ...]:
    """An ``NGramCandidate``'s token keys, as mining finds them."""
    return tuple(map(token_key, cand.tokens))


# --------------------------------------------------------------------------
# Search: linear scans over raw document text.


def query_keys(tokens):
    """A query's matching keys: pure-punctuation tokens are not terms."""
    return [k for k in (_normalize(t) for t in tokens) if k]


def scan_phrase(docs, phrase_tokens):
    """(doc_id, position) for every contiguous occurrence, scanning each doc."""
    target = query_keys(phrase_tokens)
    if not target:
        return []
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
    targets = [t for t in (query_keys(part.split()) for part in parts) if t]
    if not targets:
        return []
    matched = []
    for doc in docs:
        words = [_normalize(w) for w in doc.text.split()]
        ok = True
        for target in targets:
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


def scan_snippets(docs, hits, length, window):
    """(doc_id, text) for each (doc_id, start) hit of a ``length``-key match:
    the raw words from ``window`` before the start to ``window`` after the
    match, clipped to the document."""
    by_id = {doc.id: doc.text.split() for doc in docs}
    out = []
    for doc_id, start in hits:
        words = by_id[doc_id]
        cut = words[max(0, start - window) : min(len(words), start + length + window)]
        out.append((doc_id, " ".join(cut)))
    return out


def scan_conjunctive_snippets(docs, parts, window):
    """(doc_id, text) per matching doc, cut around the first occurrence of
    the first part that has any matching key."""
    first = next((p.split() for p in parts if query_keys(p.split())), None)
    if first is None:
        return []
    matched = set(scan_conjunctive(docs, parts))
    starts = {}
    for doc_id, start in scan_phrase(docs, first):
        if doc_id in matched:
            starts.setdefault(doc_id, start)
    hits = sorted(starts.items())
    return scan_snippets(docs, hits, len(query_keys(first)), window)


# --------------------------------------------------------------------------
# Mining: recount every n-gram by hand.


def _snippet_words(snippet):
    words = [w.strip(".,;:!?\"'()[]{}<>`«»“”‘’–—") for w in snippet.text.split()]
    return [w for w in words if w]


def _weighted_snippets(evidence):
    """(weight, snippet) for every snippet of (weight, snippets) pairs."""
    return [(weight, snippet) for weight, snippets in evidence for snippet in snippets]


def count_ngrams(evidence, exclude=(), stop=frozenset(), max_n=3):
    """Map n-gram key tuple -> (score, support), recounted naively over
    (weight, snippets) pairs. The map is in first-occurrence order: snippet
    by snippet, 1-grams first."""
    excluded = {_normalize(t) for t in exclude}
    totals: dict[tuple, list[float]] = {}
    for weight, snippet in _weighted_snippets(evidence):
        keys = [_normalize(w) for w in _snippet_words(snippet)]
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
                entry[0] += weight
                entry[1] += 1
    return {gram: (score, support) for gram, (score, support) in totals.items()}


def mine_in_order(evidence, exclude=(), stop=frozenset(), max_n=3):
    """[(surface tokens, score, support)] of every surviving n-gram in
    first-occurrence order. The surface form is the one seen most often for
    the n-gram's keys; of equally frequent forms the first seen wins."""
    totals = count_ngrams(evidence, exclude, stop, max_n)
    seen = {gram: [] for gram in totals}  # every surface form, in order
    for _, snippet in _weighted_snippets(evidence):
        words = _snippet_words(snippet)
        for n in range(1, max_n + 1):
            for i in range(len(words) - n + 1):
                gram = tuple(_normalize(w) for w in words[i : i + n])
                if gram in seen:
                    seen[gram].append(tuple(words[i : i + n]))
    out = []
    for gram, (score, support) in totals.items():
        forms = seen[gram]
        best = max(forms, key=lambda form: (forms.count(form), -forms.index(form)))
        out.append((best, score, support))
    return out


def mine_per_call(evidence, *, exclude=()):
    """Mining that tokenizes every snippet and enumerates its n-grams on each
    call, applying the question's exclusions during the enumeration: the
    reference for ``compose.mine_ngrams``, which walks the n-grams each
    snippet keeps and applies the exclusions afterwards."""
    stop = default_stopwords()
    excluded = frozenset(token_key(t) for t in exclude)

    found: dict[tuple[str, ...], list] = {}  # key -> [score, support, {surface form: count}]
    by_weight: dict[float, set[tuple[str, ...]]] = {}

    for weight, snippet in ((weight, s) for weight, group in evidence for s in group):
        touched = by_weight.setdefault(weight, set())
        words = word_tokens(snippet.text)
        keys = [token_key(w) for w in words]
        # A gram survives when every token is usable and both edges are
        # usable non-stop words, so each token is tested once, not per gram.
        usable = [bool(k) and k not in excluded for k in keys]
        edge = [u and k not in stop for u, k in zip(usable, keys)]
        n_tokens = len(words)
        for n in range(1, MAX_NGRAM + 1):
            for i in range(n_tokens - n + 1):
                last = i + n - 1
                if not (edge[i] and edge[last] and (n < 3 or all(usable[i + 1 : last]))):
                    continue
                gram_keys = tuple(keys[i : i + n])
                entry = found.get(gram_keys)
                if entry is None:
                    entry = found[gram_keys] = [0.0, 0, {}]
                entry[0] += weight
                entry[1] += 1
                touched.add(gram_keys)
                form = tuple(words[i : i + n])
                entry[2][form] = entry[2].get(form, 0) + 1

    out = []
    for score, support, forms in found.values():
        best = max(forms, key=forms.__getitem__)  # ties: first seen
        out.append(NGramCandidate(tokens=best, score=score, support=support))
    return Candidates(out, len(out), {w: len(keys) for w, keys in by_weight.items()})


def remined_counts(rewrites_used, snippets, exclude, stop):
    """(numngrams, {weight: count}) for a run prefix by mining it in full,
    then mining the snippets of each rewrite weight again on their own: the
    reference for the counts that one mining pass reports. ``snippets``
    holds one list per rewrite used."""
    evidence = [(r.weight, found) for r, found in zip(rewrites_used, snippets)]
    numngrams = len(count_ngrams(evidence, exclude, stop))
    per_weight = {}
    for weight in {r.weight for r in rewrites_used}:
        subset = [(w, found) for w, found in evidence if w == weight]
        per_weight[weight] = len(count_ngrams(subset, exclude, stop))
    return numngrams, per_weight


# --------------------------------------------------------------------------
# Filtering: every filter's pattern searched afresh on every candidate.


def filter_factor(text, qtype):
    """The product of the factors of the table's filters that apply to
    ``qtype`` and whose pattern matches ``text``, searched with ``re.search``
    from the pattern's source and flags on every call."""
    factor = 1.0
    for flt in DEFAULT_FILTERS:
        if qtype in flt.applicable_types and re.search(flt.pattern.pattern, text, flt.pattern.flags):
            factor *= flt.factor
    return factor


def filter_each(cands, qtype):
    """Every candidate with its score times its text's filter factor."""
    return [NGramCandidate(c.tokens, c.score * filter_factor(c.text, qtype), c.support) for c in cands]


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


def _best_overlap(a, b) -> int:
    """Longest L >= 1 such that the last L words of a equal the first L of b."""
    ka, kb = candidate_key(a), candidate_key(b)
    for length in range(min(len(ka), len(kb)), 0, -1):
        if ka[-length:] == kb[:length]:
            return length
    return 0


def tile_all_pairs(cands):
    """Greedy tiling by testing every ordered pair at every step: the
    highest combined score wins, then the longest overlap, then the
    smallest key pair, then the first pair in row-major order. Takes and
    returns ``NGramCandidate``s, sorted stably by score descending."""
    from budgetqa.compose import NGramCandidate

    pool = list(cands)
    while True:
        best = None  # (score, overlap, neg-key-pair, i, j)
        for i, a in enumerate(pool):
            for j, b in enumerate(pool):
                if i == j:
                    continue
                overlap = _best_overlap(a, b)
                if not overlap:
                    continue
                rank = (a.score + b.score, overlap)
                pair = (candidate_key(a), candidate_key(b))
                if best is None or rank > best[0] or (rank == best[0] and pair < best[1]):
                    best = (rank, pair, i, j)
        if best is None:
            break
        _, _, i, j = best
        a, b = pool[i], pool[j]
        overlap = _best_overlap(a, b)
        merged = NGramCandidate(
            tokens=a.tokens + b.tokens[overlap:],
            score=a.score + b.score,
            support=a.support + b.support,
        )
        pool[i] = merged
        del pool[j]
    return sorted(pool, key=lambda c: -c.score)


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
    """(n or None, nets) by checking every threshold directly. Budgets rank
    on their nets in query units, p * k - n; the nets returned are those
    times c."""
    units = {n: p * k - n for n, p in probs.items()}
    candidates = sorted(units, key=lambda n: (-units[n], n))
    best = candidates[0]
    nets = {n: u * c for n, u in units.items()}
    if units[best] < 0:
        return None, nets
    return best, nets


def best_subset_score(scores, n):
    """Max score sum over all n-subsets (for checking top-n orderings)."""
    if n >= len(scores):
        return sum(scores)
    return max(sum(combo) for combo in combinations(scores, n))


# --------------------------------------------------------------------------
# Trees: the mask-based split search, one boolean mask per candidate split.


def _candidate_splits(cases, name, kind):
    values = [c.features[name] for c in cases]
    if kind == "numeric":
        distinct = sorted({float(v) for v in values})
        for lo, hi in zip(distinct, distinct[1:]):
            threshold = (lo + hi) / 2
            yield threshold, [float(c.features[name]) <= threshold for c in cases]
    else:
        for category in sorted(set(values)):
            mask = [c.features[name] == category for c in cases]
            if not all(mask):  # one-vs-rest needs a nonempty rest
                yield category, mask


def grow_by_masks(cases, schema):
    """The tree ``train_tree`` grows, found by building a mask for every
    candidate split and counting through it."""
    from budgetqa.tree import MIN_GAIN, MIN_LEAF, Split, _entropy, _leaf

    pos = sum(1 for c in cases if c.label)
    if len(cases) < MIN_LEAF or pos in (0, len(cases)):
        return _leaf(cases)

    parent = _entropy(pos, len(cases))
    best_gain = 0.0
    best = None
    for name in sorted(schema):
        for value, mask in _candidate_splits(cases, name, schema[name]):
            n_left = sum(mask)
            pos_left = sum(1 for c, m in zip(cases, mask) if m and c.label)
            n_right = len(cases) - n_left
            pos_right = pos - pos_left
            child = (n_left / len(cases)) * _entropy(pos_left, n_left) + (
                n_right / len(cases)
            ) * _entropy(pos_right, n_right)
            gain = parent - child
            if gain > best_gain + 1e-12:
                best_gain = gain
                best = (name, value, mask)
    if best is None or best_gain < MIN_GAIN:
        return _leaf(cases)

    name, value, mask = best
    left_cases = [c for c, m in zip(cases, mask) if m]
    right_cases = [c for c, m in zip(cases, mask) if not m]
    return Split(
        feature=name,
        kind=schema[name],
        value=value,
        left=grow_by_masks(left_cases, schema),
        right=grow_by_masks(right_cases, schema),
    )


# --------------------------------------------------------------------------
# Earlier implementations of the speed-tuned kernels, kept verbatim but for
# their names (and ``self`` made an argument), so each rewrite can be checked
# to return exactly what they return, order included. Unlike the oracles
# above they read the index's postings and build the package's own types.


def slow_ngrams(text: str) -> tuple:
    """``text.ngrams`` before its loops were unrolled per n."""
    stop = default_stopwords()
    words = word_tokens(text)
    keys = [token_key(w) for w in words]
    edge = [bool(k) and k not in stop for k in keys]
    out = []
    for n in range(1, MAX_NGRAM + 1):
        for i in range(len(words) - n + 1):
            last = i + n - 1
            if edge[i] and edge[last] and (n < 3 or all(keys[i + 1 : last])):
                gram_keys = tuple(keys[i : i + n])
                form = tuple(words[i : i + n])
                out.append((gram_keys, gram_keys if form == gram_keys else form))
    return tuple(out)


def slow_index_init(self, docs: list[Document]):
    """``Index.__init__`` with one ``setdefault`` per token; ``self`` is an
    ``Index`` made by ``Index.__new__``."""
    self.docs = docs
    self.raw_words: list[list[str]] = []
    self.keys: list[list[str]] = []
    self.postings: dict[str, list[tuple[int, int]]] = {}
    for ordinal, doc in enumerate(docs):
        words = doc.text.split()
        keys = [token_key(w) for w in words]
        self.raw_words.append(words)
        self.keys.append(keys)
        for pos, key in enumerate(keys):
            if key:
                self.postings.setdefault(key, []).append((ordinal, pos))
    # Reversed so that each doc's first position is the one kept.
    self.first_positions: dict[str, dict[int, int]] = {
        key: dict(reversed(plist)) for key, plist in self.postings.items()
    }


def slow_phrase_positions(self, phrase_keys: list[str]) -> list[tuple[int, int]]:
    """``Index.phrase_positions`` filtering on the rarest key's neighbour;
    ``self`` is the ``Index``."""
    if not phrase_keys:
        return []
    plists = [self.postings.get(k) for k in phrase_keys]
    if not all(plists):
        return []  # a key that occurs nowhere (or is empty) matches nothing
    offset = min(range(len(plists)), key=lambda j: len(plists[j]))
    size = len(phrase_keys)
    # A document without the rarest key's neighbour cannot hold the
    # phrase, so one lookup skips it. A one-key phrase's only key is
    # its own "neighbour", which every posting's document has.
    near = self.first_positions[phrase_keys[offset + 1 if offset + 1 < size else offset - 1]]
    doc_keys = self.keys
    return [
        (ordinal, pos - offset)
        for ordinal, pos in plists[offset]
        if ordinal in near
        and pos >= offset
        and doc_keys[ordinal][pos - offset : pos - offset + size] == phrase_keys
    ]


def slow_mine_ngrams(evidence, *, exclude: frozenset[str] = frozenset()) -> Candidates:
    """``compose.mine_ngrams`` with a form-count mapping per candidate."""
    found: dict[tuple[str, ...], list] = {}  # key -> [score, support, {surface form: count}]
    by_weight: dict[float, set[tuple[str, ...]]] = {}
    isdisjoint = exclude.isdisjoint

    for weight, group in evidence:
        if not group:
            continue
        touched = by_weight.setdefault(weight, set())
        for snippet in group:
            for gram_keys, form in snippet.grams:
                if not isdisjoint(gram_keys):
                    continue
                touched.add(gram_keys)
                entry = found.get(gram_keys)
                if entry is None:
                    found[gram_keys] = [weight, 1, {form: 1}]
                    continue
                entry[0] += weight
                entry[1] += 1
                forms = entry[2]
                forms[form] = forms.get(form, 0) + 1

    out = []
    for score, support, forms in found.values():
        # the most frequent form, the first seen on ties; a lone form needs no max
        best = next(iter(forms)) if len(forms) == 1 else max(forms, key=forms.__getitem__)
        out.append(NGramCandidate(best, score, support))
    return Candidates(out, len(out), {w: len(keys) for w, keys in by_weight.items()}, tuple(found))


def slow_overlap(ka: tuple[str, ...], kb: tuple[str, ...]) -> int:
    """Longest L >= 1 such that the last L keys of ka equal the first L of kb."""
    for length in range(min(len(ka), len(kb)), 0, -1):
        if ka[-length:] == kb[:length]:
            return length
    return 0


def slow_tile_ngrams(cands, keys) -> list:
    """``compose.tile_ngrams`` scanning every pair until none overlaps."""
    pool: list[NGramCandidate] = list(cands)
    if len(pool) < 2:
        return pool
    # Kept in step with pool. A candidate without tokens has no first key
    # and overlaps nothing.
    keys = list(keys)
    firsts = [kb[0] if kb else None for kb in keys]
    while True:
        best = None  # (rank, key pair, i, j)
        for i, ka in enumerate(keys):
            score = pool[i].score
            for j, first in enumerate(firsts):
                if first not in ka or j == i:
                    continue
                kb = keys[j]
                overlap = slow_overlap(ka, kb)
                if not overlap:
                    continue
                rank = (score + pool[j].score, overlap)
                if best is None or rank > best[0] or (rank == best[0] and (ka, kb) < best[1]):
                    best = (rank, (ka, kb), i, j)
        if best is None:
            break
        (_, overlap), _, i, j = best
        a, b = pool[i], pool[j]
        pool[i] = NGramCandidate(
            tokens=a.tokens + b.tokens[overlap:],
            score=a.score + b.score,
            support=a.support + b.support,
        )
        keys[i] = keys[i] + keys[j][overlap:]
        del pool[j], keys[j], firsts[j]
    return sorted(pool, key=attrgetter("score"), reverse=True)


def slow_all_words(self) -> list[str]:
    """``Rewrite.all_words``; ``self`` is the ``Rewrite``."""
    words: list[str] = []
    for part in self.parts:
        words.extend(part.split())
    return words


def slow_count_stats(words: list[str]) -> dict[str, float]:
    """The count features every rewrite kind shares."""
    stop = default_stopwords()
    numstop = sum(1 for w in words if token_key(w) in stop)
    return {
        "numcap": float(sum(1 for w in words if w[:1].isupper())),
        "numstop": float(numstop),
        "pctstop": numstop / len(words) if words else 0.0,
    }


def slow_conjunctive_features(r) -> dict[str, float]:
    """The five count features, computable for any rewrite kind."""
    words = slow_all_words(r)
    return {
        "longwd": float(max((len(w) for w in words), default=0)),
        "numwords": float(len(words)),
        **slow_count_stats(words),
    }


class SlowAdjacencyGrammarScorer:
    """``AdjacencyGrammarScorer`` checking each adjacent pair of keys."""

    def score(self, phrase: str) -> tuple[int, float]:
        keys = [token_key(w) for w in phrase.split()]
        violations = 0
        if keys and keys[0] in _AUX_LIKE:
            violations += 1
        for prev, cur in zip(keys, keys[1:]):
            if prev in _DETERMINERS and (cur in _AUX_LIKE or cur.endswith("ed")):
                violations += 1
            elif prev in _AUX_LIKE and cur in _AUX_LIKE:
                violations += 1
            elif cur.endswith("ed") and cur not in _AUX_LIKE and prev not in _AUX_LIKE:
                if prev not in _DETERMINERS:  # determiner case already counted
                    violations += 1
        sgm = max(0.0, 1.0 - VIOLATION_PENALTY * violations)
        return violations, sgm


def slow_phrasal_features(r, scorer) -> dict[str, float]:
    """Count features plus parse-derived features for a phrasal rewrite."""
    if r.kind is not RewriteKind.PHRASAL:
        raise WrongRewriteKind("phrasal features require a PHRASAL rewrite")
    secondary, sgm = scorer.score(r.parts[0])
    return {
        **slow_count_stats(slow_all_words(r)),
        "secondary_parses": float(secondary),
        "sgm": sgm,
    }


def slow_classify_tokens(tokens: tuple[str, ...]) -> QuestionType:
    """``rewrite.classify_tokens`` as one if-chain over the leading keys."""
    if not tokens:
        return QuestionType.OTHER
    head = token_key(tokens[0])
    if head == "who":
        return QuestionType.WHO
    if head == "when":
        return QuestionType.WHEN
    if head == "where":
        return QuestionType.WHERE
    if head == "what":
        return QuestionType.WHAT
    if head == "how" and len(tokens) > 1:
        second = token_key(tokens[1])
        if second == "many":
            return QuestionType.HOW_MANY
        if second == "long":
            return QuestionType.HOW_LONG
    return QuestionType.OTHER


# How many leading tokens ``generate_rewrites`` drops per question type.
WH_STRIP = {
    QuestionType.WHO: 1,
    QuestionType.WHAT: 1,
    QuestionType.WHEN: 1,
    QuestionType.WHERE: 1,
    QuestionType.HOW_MANY: 2,
    QuestionType.HOW_LONG: 2,
    QuestionType.OTHER: 0,
}
