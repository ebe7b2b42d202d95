"""The signed label-placement kernel that every signed count and every
tableau and tensor invariant reduces to.

A sum is a fixed sequence of steps, each placing a tuple of labels on a
tuple of lines.  No label may repeat on a line; a signed line contributes
the sign of the permutation its labels form in placement order,
accumulated as inversions against the labels already on it; each
placement carries an integer weight.  `_signed_sum` evaluates that sum by
a forward sweep over layers of packed line-mask states, merging the
partial placements that reach the same state, in bounded memory; a
candidate costs one test for reuse and one popcount for its inversions.
Each sweep adds its work to the work record of the innermost
`budget.scope`: `states` (state expansions, summed) and `peak_states`
(live states, maximum).

A relabelling g of the labels that maps every candidate list onto itself,
each weight times chi(g), maps complete placements to complete placements.
When every signed line is full (it receives every label g permutes), g
multiplies each placement's value by `_character`, chi(g)^(#steps) *
sgn(g)^(#signed lines); `_first_step_orbits` reads it off the generators: one
on which it is -1 proves the sum 0, and otherwise the sum is one subtree per
orbit of the first step's candidates times the orbit's size.
"""

from __future__ import annotations

import math
from typing import Sequence

from .budget import active, record
from .exact import sequence_sign

_CHECK_MASK = 0x3FF  # deadline polling period in candidates checked, packed or walked
_POLL_TRIES = 1 << 16  # most candidate tries a sweep makes between two deadline polls
_STATE_CAP = 1 << 20  # live states across all the layers a sweep holds
_CHUNK_FLOOR = 1 << 12  # no partial layer is finished on its own below this size


def _signed_sum(steps: Sequence[tuple]) -> int:
    """The sum over all placements of sign * product of candidate weights;
    the work record (`budget.record`) adds the state expansions to `states`
    and raises `peak_states` to this run's peak.

    steps[t] = (lines, signed, candidates); a candidate (labels, weight)
    puts the positive integer labels[k] on line lines[k] and multiplies the
    term by the integer weight.  A placement picks one candidate per step
    such that no line receives a label twice; its sign is (-1)^(inversions
    on the lines whose signed[k] is true), each line read in step order.
    steps must be nonempty.

    A candidate's inversions depend only on the labels already on its lines,
    so what remains of the sum after t steps depends only on the packed line
    masks.  The sweep therefore carries one layer per step, a dict from
    state to the signed weight of every partial placement reaching it, and
    merges the placements that meet.  The layer after the last step holds
    the complete placements, and the sum is its total: it is built like
    every other layer but never expanded, so `states` leaves it out while
    `peak_states` counts it beside the layer it is built from.  It holds at
    most one state when every line ends full, as every line of a tableau or
    tensor invariant does (each is signed and receives every label).
    Memory is bounded: when the layer under construction reaches
    max(_CHUNK_FLOOR, _STATE_CAP - states held by the layers above), that
    partial layer is finished by a recursive sweep whose total adds to the
    sum, and the layer starts again.  A sweep empties each layer it has
    expanded, the chunk it was handed included, so only the counted layers
    stay alive.  The floor keeps a full cap from degenerating into one dict
    per placement; so the peak may pass the cap by one floor-sized partial
    layer per recursion level.  The deadline in effect (`budget.active()`)
    is polled every 1,024 candidates of a step while they are packed, and
    while a layer is expanded every max(1, _POLL_TRIES // c) states, c the
    step's candidate count: at most max(_POLL_TRIES, c) candidate tries
    pass between two polls.
    """
    deadline = active()
    width = 1 + max((max(labels) for _, _, cands in steps for labels, _ in cands), default=0)
    segment = (1 << width) - 1
    # Line l owns bits l*width .. l*width + width - 1 of the packed state.  Per
    # step: (bits the candidate sets, bits whose presence is an inversion, weight).
    plan = []
    for lines, signed, cands in steps:
        packed = []
        for i, (labels, weight) in enumerate(cands):
            if not i & _CHECK_MASK:
                deadline.check()
            bits = above = 0
            for line, flag, label in zip(lines, signed, labels):
                bits |= 1 << (line * width + label)
                if flag:
                    above |= (segment & -(2 << label)) << (line * width)
            packed.append((bits, above, weight))
        plan.append(packed)
    periods = [max(1, _POLL_TRIES // max(1, len(packed))) for packed in plan]  # states between polls
    expanded = peak = 0

    def sweep(t: int, layer: dict[int, int], held: int) -> int:
        """Sum over the placements of steps t.. that continue the states of `layer`."""
        nonlocal expanded, peak
        total = 0
        while t < len(plan):  # a loop, so a fully merged layer is released once the next is built
            limit = max(_CHUNK_FLOOR, _STATE_CAP - held - len(layer))
            following: dict[int, int] = {}
            get = following.get
            period = periods[t]
            for i, (state, w) in enumerate(layer.items()):
                if not i % period:  # also on entry to every layer
                    deadline.check()
                for bits, above, weight in plan[t]:
                    if not state & bits:
                        key = state | bits
                        if (state & above).bit_count() & 1:
                            following[key] = get(key, 0) - w * weight
                        else:
                            following[key] = get(key, 0) + w * weight
                if len(following) >= limit:
                    peak = max(peak, held + len(layer) + len(following))
                    total += sweep(t + 1, following, held + len(layer))  # which empties the chunk if it expands it
                    following = {}
                    get = following.get
            expanded += len(layer)
            peak = max(peak, held + len(layer) + len(following))
            # Emptied in place, so that a caller still naming this layer (as the
            # chunk it handed down) does not keep its states alive.
            layer.clear()
            for state in [state for state, w in following.items() if not w]:
                del following[state]
            layer = following
            t += 1
        return total + sum(layer.values())

    total = sweep(0, {0: 1}, 0)
    work = record()
    work["states"] = work.get("states", 0) + expanded
    work["peak_states"] = max(work.get("peak_states", 0), peak)
    return total


def _integer_weights(entries: dict) -> tuple[int, list[tuple[tuple[int, ...], int]]]:
    """(den, candidates): the rational entries scaled by their common denominator.

    A placement multiplies one weight per step, so the kernel's integer sum
    over s steps divided by den**s is the rational sum.
    """
    den = math.lcm(*(w.denominator for w in entries.values()))
    return den, [(idx, int(w * den)) for idx, w in entries.items()]


def _character(perm: dict, chi: int, steps: int, signed_lines: int) -> int:
    """chi^steps * sgn(perm)^signed_lines: the factor by which a relabelling of weight character chi
    multiplies a sum whose signed lines each receive every label it permutes."""
    return chi**steps * sequence_sign([perm[label] for label in sorted(perm)]) ** signed_lines


def _first_step_orbits(steps: Sequence[tuple], generators: Sequence[tuple[dict, int]]) -> list[tuple[int, int]]:
    """[(candidate index, multiplier)]: the sum over all placements is the sum of
    multiplier times the sum with the first step fixed to that candidate.

    generators is a list of (label permutation as a dict, weight character
    chi).  ValueError, before any sweep, unless every generator permutes one
    common label set, has chi = +-1 and maps each distinct candidate list
    onto itself with every weight times chi, and every line with a signed
    placement is signed in all of them and receives one per label.  Then g
    maps the whole sum S to f(g) * S with f = `_character`, and fixing the
    first step to g.c gives f(g) times the sum at c.  So a generator with
    f = -1 proves S = 0, and the result is [] with no orbit walked;
    otherwise every candidate of an orbit has its first candidate's sum, and
    the multiplier is the orbit's size.
    The deadline in effect is polled every 1,024 candidates, in the check and the walk.
    """
    deadline = active()
    domain = set(generators[0][0]) if generators else set()
    for perm, chi in generators:
        if set(perm) != domain or set(perm.values()) != domain:
            raise ValueError("the generators do not permute one common label set")
        if chi not in (1, -1):
            raise ValueError(f"weight character {chi} is not +1 or -1")
    checked = set()
    for _, _, cands in steps:
        if id(cands) in checked:
            continue
        checked.add(id(cands))
        table = dict(cands)
        if len(table) != len(cands):
            raise ValueError("a candidate list repeats labels")
        for perm, chi in generators:
            for i, (labels, weight) in enumerate(cands):
                if not i & _CHECK_MASK:
                    deadline.check()
                if table.get(tuple(perm.get(label) for label in labels)) != chi * weight:
                    raise ValueError(f"relabelling does not map candidate {labels} with weight times {chi}")
    placements: dict[int, list[int]] = {}  # line -> [placements, signed placements]
    for lines, signed, _ in steps:
        for line, flag in zip(lines, signed):
            count = placements.setdefault(line, [0, 0])
            count[0] += 1
            count[1] += flag
    signed_lines = 0
    for total, flagged in placements.values():
        if flagged and generators:
            if flagged != total or total != len(domain):
                raise ValueError(f"a signed line receives {flagged} signed of {total} placements, "
                                 f"not all {len(domain)} labels")
            signed_lines += 1
    if any(_character(perm, chi, len(steps), signed_lines) == -1 for perm, chi in generators):
        return []

    candidates = steps[0][2]
    index = {labels: i for i, (labels, _) in enumerate(candidates)}
    seen = [False] * len(candidates)
    orbits, walked = [], 0
    for start in range(len(candidates)):
        if seen[start]:
            continue
        seen[start] = True
        orbit = [start]
        for i in orbit:  # the walk appends to the orbit as it goes
            if not walked & _CHECK_MASK:
                deadline.check()
            walked += 1
            for perm, _ in generators:
                j = index[tuple(perm[label] for label in candidates[i][0])]
                if not seen[j]:
                    seen[j] = True
                    orbit.append(j)
        orbits.append((start, len(orbit)))
    return orbits
