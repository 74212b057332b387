"""Sequitur: linear-time context-free grammar induction.

A faithful port of Nevill-Manning & Witten's SEQUITUR (1997), the
grammar inducer RPM uses to discover recurrent SAX-word patterns. The
algorithm appends tokens to the start rule one at a time while
maintaining two invariants:

* **digram uniqueness** — no pair of adjacent symbols appears more than
  once in the grammar; a repeated digram is rewritten as a rule;
* **rule utility** — every rule is referenced at least twice; a rule
  whose reference count drops to one is inlined and deleted.

Tokens here are whole SAX *words* (e.g. ``'abc'``), not characters, so
one input position corresponds to one sliding-window subsequence.

Every rule's right-hand side is a circular doubly-linked list closed by
a guard node. The nodes of all rules live in three parallel int lists,
``prev``, ``next`` and ``value``. A value is a token's interned id
(``>= 0``), a reference to rule ``r`` (``-r - 1``) or ``None`` for a
guard. Node 0 stands for "no node": unlinked nodes point at it, and its
``None`` value ends every digram test, as a guard does. The digram
index maps the two values of a digram, packed into one int, to the node
that starts its indexed occurrence.
"""

from __future__ import annotations

from typing import Hashable, Iterable

__all__ = ["Rule", "Sequitur", "induce_grammar"]

#: Digram keys are ``first * _STRIDE + second``. Token ids and rule
#: references stay far inside ``(-_STRIDE / 2, _STRIDE / 2)``, so the
#: packing is one-to-one.
_STRIDE = 1 << 32

#: The start rule's guard node.
_START = 1


class Rule:
    """A read-only record of one live rule: ``R<i> -> s1 s2 ... sk``.

    ``refcount`` is the number of references to the rule when the record
    was built; Sequitur's *rule utility* constraint inlines any rule
    whose refcount drops to 1.
    """

    __slots__ = ("rule_id", "refcount", "_grammar")

    def __init__(self, grammar: "Sequitur", rule_id: int) -> None:
        self.rule_id = rule_id
        self.refcount = grammar._refcount[rule_id]
        self._grammar = grammar

    def expansion(self) -> list:
        """The terminal token sequence this rule ultimately derives."""
        return list(self._grammar._expansion(self.rule_id))

    def rhs_string(self) -> str:
        """Human-readable right-hand side, e.g. ``'aba R2 R2'``."""
        tokens = self._grammar._tokens
        return " ".join(
            str(tokens[v]) if v >= 0 else f"R{-v - 1}"
            for v in self._grammar._body(self.rule_id)
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Rule(R{self.rule_id} -> {self.rhs_string()})"


class Sequitur:
    """Incremental Sequitur grammar builder.

    Usage::

        g = Sequitur()
        for token in tokens:
            g.feed(token)
        rules = g.rules()          # all live rules (incl. the start rule R0)
        g.expansion(rule)          # terminal token sequence of a rule

    Fed tokens may be any hashable objects; equal tokens share one id,
    and expansions return the tokens as fed.
    """

    def __init__(self) -> None:
        self._prev: list[int] = [0, _START]
        self._next: list[int] = [0, _START]
        self._value: list[int | None] = [None, None]
        # Per rule id: its guard node (None once the rule is inlined)
        # and its reference count.
        self._guard: list[int | None] = [_START]
        self._refcount: list[int] = [0]
        self._owner: dict[int, int] = {_START: 0}  # guard node -> rule id
        self._digrams: dict[int, int] = {}
        self._ids: dict[Hashable, int] = {}
        self._tokens: list = []
        # A non-start rule's expansion never changes: digram substitution
        # and rule inlining both preserve the string each rule derives.
        self._expansions: dict[int, tuple] = {}
        self._tokens_fed = 0

    # -- public API ------------------------------------------------------------

    def feed(self, token: Hashable) -> None:
        """Append one token to the input and restore the invariants."""
        self.feed_all((token,))

    def feed_all(self, tokens: Iterable[Hashable]) -> "Sequitur":
        """Feed every token of an iterable; returns self."""
        ids, names = self._ids, self._tokens
        prev, nxt, value, digrams = self._prev, self._next, self._value, self._digrams
        for token in tokens:
            tid = ids.get(token)
            if tid is None:
                tid = ids[token] = len(names)
                names.append(token)
            node = len(value)
            last = prev[_START]
            prev.append(last)
            nxt.append(_START)
            value.append(tid)
            nxt[last] = node
            prev[_START] = node
            self._tokens_fed += 1
            first = value[last]
            if first is not None:
                # _check(last), inlined: the new digram ends the start rule.
                key = first * _STRIDE + tid
                found = digrams.get(key)
                if found is None:
                    digrams[key] = last
                elif nxt[found] != last:  # ignore the overlapping occurrence
                    self._match(last, found)
        return self

    def rules(self) -> list[Rule]:
        """All live rules, the start rule first, then by creation order."""
        return [Rule(self, rid) for rid in self._live_ids()]

    def non_start_rules(self) -> list[Rule]:
        """All live rules except the start rule R0."""
        return self.rules()[1:]

    @property
    def start(self) -> Rule:
        """The start rule R0, whose expansion is the input so far."""
        return Rule(self, 0)

    @property
    def tokens_fed(self) -> int:
        """Number of tokens consumed so far."""
        return self._tokens_fed

    def expansion(self, rule: Rule) -> list:
        """Terminal token sequence a rule derives."""
        return rule.expansion()

    def grammar_size(self) -> int:
        """Total number of right-hand-side symbols across live rules."""
        return sum(len(self._body(rid)) for rid in self._live_ids())

    def to_string(self) -> str:
        """Printable grammar, GrammarViz style."""
        lines = [f"R{rule.rule_id} -> {rule.rhs_string()}" for rule in self.rules()]
        return "\n".join(lines)

    # -- reading rules -----------------------------------------------------------

    def _live_ids(self) -> list[int]:
        """Ids of the rules not inlined yet, in creation order."""
        return [rid for rid, guard in enumerate(self._guard) if guard is not None]

    def _body(self, rule_id: int) -> list[int]:
        """The values of a live rule's right-hand side, in order."""
        nxt, value = self._next, self._value
        guard = self._guard[rule_id]
        out = []
        node = nxt[guard]
        while node != guard:
            out.append(value[node])
            node = nxt[node]
        return out

    def _expansion(self, rule_id: int) -> tuple:
        """The fed tokens a live rule derives (memoized for non-start rules)."""
        memo = self._expansions.get(rule_id)
        if memo is not None:
            return memo
        tokens = self._tokens
        out: list = []
        for v in self._body(rule_id):
            if v >= 0:
                out.append(tokens[v])
            else:
                out.extend(self._expansion(-v - 1))
        expansion = tuple(out)
        if rule_id:
            self._expansions[rule_id] = expansion
        return expansion

    # -- core operations ---------------------------------------------------------

    def _check(self, node: int) -> bool:
        """Enforce digram uniqueness for the digram starting at *node*.

        Returns True when the digram already existed in the index.
        """
        value = self._value
        first = value[node]
        if first is None:
            return False
        second = value[self._next[node]]
        if second is None:
            return False
        key = first * _STRIDE + second
        found = self._digrams.get(key)
        if found is None:
            self._digrams[key] = node
            return False
        if self._next[found] != node:  # ignore the overlapping occurrence
            self._match(node, found)
        return True

    def _remove(self, node: int) -> None:
        """Unlink *node*, clearing the digram entries it participated in."""
        prev, nxt, value, digrams = self._prev, self._next, self._value, self._digrams
        left, right, v = prev[node], nxt[node], value[node]
        if v is not None:
            # The digrams (left, node) and (node, right) die with the unlink.
            a = value[left]
            if a is not None:
                key = a * _STRIDE + v
                if digrams.get(key) == left:
                    del digrams[key]
            b = value[right]
            if b is not None:
                key = v * _STRIDE + b
                if digrams.get(key) == node:
                    del digrams[key]
        nxt[left] = right
        prev[right] = left
        prev[node] = nxt[node] = 0
        if v is not None and v < 0:
            self._refcount[-v - 1] -= 1

    def _insert_after(self, left: int, v: int) -> int:
        """Link a new node of value *v* after *left*; returns the node."""
        prev, nxt, value = self._prev, self._next, self._value
        node = len(value)
        right = nxt[left]
        prev.append(left)
        nxt.append(right)
        value.append(v)
        prev[right] = node
        nxt[left] = node
        if v < 0:
            self._refcount[-v - 1] += 1
        return node

    def _substitute(self, node: int, rule_id: int) -> None:
        """Replace the digram at *node* with a reference to *rule_id*."""
        left = self._prev[node]
        second = self._next[node]
        self._remove(node)
        self._remove(second)
        reference = self._insert_after(left, -rule_id - 1)
        if not self._check(left):
            self._check(reference)

    def _match(self, new: int, existing: int) -> None:
        """A digram occurs twice: rewrite with an existing or new rule."""
        prev, nxt, value = self._prev, self._next, self._value
        before = prev[existing]
        if value[before] is None and value[nxt[nxt[existing]]] is None:
            # The existing occurrence is the entire RHS of a rule: reuse it.
            rule_id = self._owner[before]
            self._substitute(new, rule_id)
            guard = self._guard[rule_id]
        else:
            rule_id = len(self._guard)
            guard = len(value)
            prev.append(guard)
            nxt.append(guard)
            value.append(None)
            self._guard.append(guard)
            self._refcount.append(0)
            self._owner[guard] = rule_id
            self._insert_after(guard, value[new])
            self._insert_after(prev[guard], value[nxt[new]])
            self._substitute(existing, rule_id)
            self._substitute(new, rule_id)
            first = nxt[guard]
            self._digrams[value[first] * _STRIDE + value[nxt[first]]] = first
        # Rule utility: the two symbols just removed matched the rule's RHS,
        # so any reference count that dropped to one belongs to a rule
        # referenced from one of its endpoints. Inline those.
        refcount = self._refcount
        first = nxt[guard]
        v = value[first]
        if v is not None and v < 0 and refcount[-v - 1] == 1:
            self._expand(first)
        last = prev[guard]
        v = value[last]
        if v is not None and v < 0 and refcount[-v - 1] == 1:
            self._expand(last)

    def _expand(self, node: int) -> None:
        """Inline the single remaining use of the rule *node* references."""
        prev, nxt, value, digrams = self._prev, self._next, self._value, self._digrams
        v = value[node]
        rule_id = -v - 1
        left, right = prev[node], nxt[node]
        guard = self._guard[rule_id]
        first, last = nxt[guard], prev[guard]
        # Clear digram entries around the reference being replaced.
        a = value[left]
        if a is not None:
            key = a * _STRIDE + v
            if digrams.get(key) == left:
                del digrams[key]
        b = value[right]
        if b is not None:
            key = v * _STRIDE + b
            if digrams.get(key) == node:
                del digrams[key]
        self._refcount[rule_id] -= 1
        # Splice the rule body in place of the reference.
        nxt[left] = first
        prev[first] = left
        nxt[last] = right
        prev[right] = last
        self._guard[rule_id] = None
        # Index the freshly created digram at the seam (canonical Sequitur
        # indexes only the right seam; the left seam is re-checked lazily).
        if b is not None:
            digrams[value[last] * _STRIDE + b] = last


def induce_grammar(tokens: Iterable[Hashable]) -> Sequitur:
    """Convenience one-shot induction over an iterable of tokens."""
    return Sequitur().feed_all(tokens)
