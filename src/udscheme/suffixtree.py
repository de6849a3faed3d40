"""Distinct substrings of a collection of strings, from a generalized suffix
automaton (Blumer et al. 1985, "The smallest automaton recognizing the
subwords of a text").

One automaton is built over all the strings, each read from the initial
state, so no terminator symbols are needed. A state v stands for the
substrings of lengths len(link(v)) + 1 .. len(v) that end at one set of
positions, and every distinct substring belongs to exactly one state; the
count is the sum of len(v) - len(link(v)) over the states other than the
initial one. The construction is linear in the total input length.
"""

from __future__ import annotations


def count_distinct_substrings(strings: list) -> int:
    """Distinct non-empty substrings occurring in any of the strings.

    Accepts any sequences of hashable symbols."""
    # state -> length of its longest substring, its suffix link, its moves
    length, link, move = [0], [-1], [{}]
    for s in strings:
        last = 0
        for x in s:
            # where the prefix read so far is already known (a string that
            # starts like an earlier one), the new state is never reached
            # and ends with len(v) == len(link(v)), so it adds nothing
            cur = len(length)
            length.append(length[last] + 1)
            link.append(0)
            move.append({})
            p = last
            while p != -1 and x not in move[p]:
                move[p][x] = cur
                p = link[p]
            if p != -1:
                q = move[p][x]
                if length[q] == length[p] + 1:
                    link[cur] = q
                else:
                    # split q: its shorter substrings get a state of their own
                    clone = len(length)
                    length.append(length[p] + 1)
                    link.append(link[q])
                    move.append(dict(move[q]))
                    while p != -1 and move[p].get(x) == q:
                        move[p][x] = clone
                        p = link[p]
                    link[q] = link[cur] = clone
            last = cur
    return sum(n - length[v] for n, v in zip(length[1:], link[1:]))
