"""The sampled isomorphism check with both negations: the reference for
``represent.verify_isomorphism``.

This is the loop that ``verify_isomorphism`` ran before it skipped the
right negation on Abelian groups.  It compares phi(rneg x) with rneg(phi x)
on every sample, whatever the groups, so a report that differs from this
one in any field shows that the skip changed an answer.
"""

import random

from ordalg.represent import PeaIsomorphismReport, PhiMap


def reference_verify_isomorphism(phi, E, F, samples=500, seed=0, preimage=None):
    rng = random.Random(seed)
    report = PeaIsomorphismReport()
    if preimage is None and isinstance(phi, PhiMap):
        preimage = phi.preimage
    for _ in range(samples):
        report.sample_count += 1
        x, y = E.sample(rng), E.sample(rng)
        fx, fy = phi(x), phi(y)
        if not (F.contains(fx) and F.contains(fy)):
            report.homomorphism_failures += 1
            continue
        z = E.add(x, y)
        fz = F.add(fx, fy)
        if (z is None) != (fz is None):
            report.homomorphism_failures += 1
        elif z is not None and phi(z) != fz:
            report.homomorphism_failures += 1
        if phi(E.lneg(x)) != F.lneg(fx) or phi(E.rneg(x)) != F.rneg(fx):
            report.homomorphism_failures += 1
        if x != y and fx == fy:
            report.injectivity_failures += 1
        if E.leq(x, y) != F.leq(fx, fy):
            report.order_reflection_failures += 1
        if preimage is None:
            continue
        target = F.sample(rng)
        report.surjectivity_probes += 1
        w = preimage(target)
        if E.contains(w) and phi(w) == target:
            report.surjectivity_probes_hit += 1
    return report
