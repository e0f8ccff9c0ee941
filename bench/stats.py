"""How a run turns many timed calls into one figure.

The host shares its cores with other tenants. A core runs at full speed or
about 1.7 times slower for a second or so at a time, and the share of a run
that falls in slow spells drifts from minute to minute, so a mean or a
median over the calls moves with the host rather than with the program.
The fast spells keep the same speed, so a run reports the time per unit of
work of its fastest call: the speed of the program on a core that nobody
else is using. A change that makes the program faster moves it as it moves
the slow calls.
"""


def fast_unit(calls):
    """Seconds per unit of work in the fast spells, from (seconds, work,
    variant) calls.

    Each variant (a flow size, a walk exponent) has its own cost, so each
    gets its own fastest call; they are combined with the variants' shares
    of the work as weights.
    """
    by_variant = {}
    for seconds, work, variant in calls:
        by_variant.setdefault(variant, []).append((seconds, work))
    total = sum(w for _, w, _ in calls)
    return sum(min(s / w for s, w in group) * sum(w for _, w in group) / total for group in by_variant.values())
