"""QUADPACK's adaptive quadrature on array integrands.

A port of ``dqagse`` (finite ends, the 21-point Gauss-Kronrod rule ``dqk21``)
and ``dqagie`` (an infinite end, the transformed 15-point rule ``dqk15i``),
with their helpers ``dqpsrt`` (the error-ordered list of subintervals) and
``dqelg`` (Wynn's epsilon algorithm): R. Piessens, E. de Doncker-Kapenga,
C. W. Ueberhuber and D. K. Kahaner, *QUADPACK*, Springer 1983, sections 2.2
and 3; P. Wynn, *On a device for computing the e_m(S_n) transformation*,
MTAC 10 (1956).  One loop serves both routines.

The integrand maps an array of nodes to their values, so each step is one
call.  A rule takes 21 nodes on a finite subinterval, and on an infinite one
15, or 30 on (-inf, inf) where f(x) + f(-x) is integrated over (0, inf); the
nodes go in the order in which QUADPACK evaluates them one at a time.  The
first step is one rule on the whole interval; each later step is one
bisection, both halves' nodes in turn.  A batch of integrands runs in
lockstep: the first step's nodes are shared by every row, and each later
step holds both halves of every live row's bisection, one row each, so a
batch makes as many calls as its longest row has subintervals.  A row the
first rule settles goes no further; each other row runs QUADPACK's loop as a
generator that yields the halves it needs ruled.  Everything else is
QUADPACK's arithmetic, in its order, in Python floats, with ``fmax``/``fmin``
taking the number over a NaN; on an integrand whose values are the doubles
of a scalar integrand, each row of :func:`qag` returns the value, error
estimate, subinterval count and error code that ``scipy.integrate.quad``
(the same QUADPACK routines) returns.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

__all__ = ["REASONS", "qag"]

# the package's tolerances and subdivision limit
_EPSABS, _EPSREL, _LIMIT = 1e-12, 1e-10, 300

# the reason behind each nonzero error code ``ier`` of dqagse/dqagie
REASONS = {
    1: f"the limit of {_LIMIT} subintervals was reached",
    2: "roundoff error prevents the requested tolerance",
    3: "the integrand behaves extremely badly at some point of the interval",
    4: "roundoff error in the extrapolation table prevents convergence",
    5: "the integral is probably divergent, or slowly convergent",
}

_EPMACH = 2.220446049250313e-16  # d1mach(4)
_UFLOW = 2.2250738585072014e-308  # d1mach(1)
_OFLOW = 1.7976931348623157e308  # d1mach(2)


def _fmax(x: float, y: float) -> float:
    """C's fmax: the larger, or the number where one is NaN."""
    return y if x != x or y > x else x


class _Rule:
    """A Gauss-Kronrod pair as QUADPACK applies it.

    ``xgk`` and ``wgk`` list the abscissae in (0, 1) and their Kronrod
    weights in the order the rule sums them, ``wg`` the Gauss weight of
    each (None at a node the Gauss rule lacks, 0.0 where QUADPACK adds a
    zero term), and ``centre`` the two weights at the centre (the Gauss one
    None where the Gauss rule lacks it).  ``resasc`` sums the abscissae in
    QUADPACK's index order, the positions ``natural`` of that list.
    """

    def __init__(self, xgk, wgk, wg, centre, natural):
        self.signed = np.zeros(1 + 2 * len(xgk))  # 0, then -x_j and x_j for each x_j
        self.signed[1::2], self.signed[2::2] = np.negative(xgk), xgk
        self.wgk, self.wg, self.centre = tuple(wgk), tuple(wg), centre
        self.natural = tuple(natural)

    def nodes(self, centr: float, hlgth: float) -> np.ndarray:
        """The rule's nodes on (centr - hlgth, centr + hlgth) in evaluation order:
        the centre, then centr - h x_j and centr + h x_j for each x_j in turn
        (h (-x_j) is -(h x_j) exactly, so each node is the double of that form)."""
        return centr + hlgth * self.signed

    def apply(self, fc: float, fv1: list, fv2: list, hlgth: float) -> tuple:
        """(result, abserr, resabs, resasc) of ``dqk21``/``dqk15i`` from the values at
        the centre and at centr -/+ h x_j, each list in the rule's summing order."""
        wgk_c, wg_c = self.centre
        resg = 0.0 if wg_c is None else wg_c * fc
        resk = wgk_c * fc
        resabs = abs(resk)
        for wg, wgk, f1, f2 in zip(self.wg, self.wgk, fv1, fv2):
            fsum = f1 + f2
            if wg is not None:
                resg += wg * fsum
            resk += wgk * fsum
            resabs += wgk * (abs(f1) + abs(f2))
        reskh = resk * 0.5
        resasc = wgk_c * abs(fc - reskh)
        wgks = self.wgk
        for j in self.natural:
            resasc += wgks[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
        result = resk * hlgth
        resabs *= hlgth
        resasc *= hlgth
        abserr = abs((resk - resg) * hlgth)
        if resasc != 0.0 and abserr != 0.0:
            ratio = 200.0 * abserr / resasc  # fmin(1, ratio^1.5), without pow's overflow
            abserr = resasc * (ratio ** 1.5 if ratio < 1.0 else 1.0)
        if resabs > _UFLOW / (50.0 * _EPMACH):
            abserr = _fmax((_EPMACH * 50.0) * resabs, abserr)
        return result, abserr, resabs, resasc


# dqk21: the 10-point Gauss rule's abscissae are the odd-indexed ones of the
# 21-point Kronrod rule, summed first
_QK21_XGK = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
)
_QK21_WGK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
)
_QK21_WG = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
_QK21_ORDER = (1, 3, 5, 7, 9, 0, 2, 4, 6, 8)
_QK21 = _Rule(
    [_QK21_XGK[j] for j in _QK21_ORDER],
    [_QK21_WGK[j] for j in _QK21_ORDER],
    [_QK21_WG[j // 2] if j % 2 else None for j in _QK21_ORDER],
    (0.149445554002916905664936468389821, None),
    [_QK21_ORDER.index(j) for j in range(10)],
)
# dqk15i: the 7-point Gauss rule on the transformed interval, its weights
# interleaved with QUADPACK's zeros
_QK15I = _Rule(
    (
        0.991455371120812639206854697526329,
        0.949107912342758524526189684047851,
        0.864864423359769072789712788640926,
        0.741531185599394439863864773280788,
        0.586087235467691130294144845693013,
        0.405845151377397166906606412076961,
        0.207784955007898467600689403773245,
    ),
    (
        0.022935322010529224963732008058970,
        0.063092092629978553290700663189204,
        0.104790010322250183839876322541518,
        0.140653259715525918745189590510238,
        0.169004726639267902826583426598550,
        0.190350578064785409913256402421014,
        0.204432940075298892414161999234649,
    ),
    (
        0.0,
        0.129484966168869693270611432679082,
        0.0,
        0.279705391489276667901467771423780,
        0.0,
        0.381830050505118944950369775488975,
        0.0,
    ),
    (0.209482141084727828012999174891714, 0.417959183673469387755102040816327),
    range(7),
)


def _ruled(evaluate: Callable, rows: list | None, ends, inf: int, boun: float) -> list[tuple]:
    """(result, abserr, resabs, resasc) of ``dqk21`` (finite ends, ``inf`` = 0) or
    ``dqk15i`` (within (0, 1), mapped to the infinite range by x = boun +
    dinf (1 - t) / t, on (-inf, inf) at x and -x alike) from one ``evaluate`` call.

    At the first step (``rows`` None) ``ends`` is the one interval (a, b) and the
    nodes are one 1-D array shared by every row: one tuple per row of the
    values.  Later ``ends`` holds both halves of each live row's bisection,
    and the nodes have one row per live row, both halves' nodes in turn: one
    tuple per half, in order.
    """
    rule = _QK15I if inf else _QK21
    if rows is None:
        a, b = ends
        centr, hlgth = 0.5 * (a + b), 0.5 * (b - a)
        hlgths = None
    else:
        hlgths = [0.5 * (b - a) for a, b in ends]
        centr = np.array([0.5 * (a + b) for a, b in ends])[:, None]
        hlgth = np.array(hlgths)[:, None]
    t = rule.nodes(centr, hlgth)
    if not inf:
        values = evaluate(t if rows is None else t.reshape(len(rows), -1), rows)
        values = np.asarray(values, dtype=float).reshape(-1, 21).tolist()
    else:
        with np.errstate(all="ignore"):
            x = boun + min(1, inf) * (1.0 - t) / t
            if inf == 2:
                # QUADPACK's order: x_c, -x_c, then per abscissa x_1, x_2, -x_1, -x_2
                pairs = x[..., 1:].reshape(*x.shape[:-1], -1, 2)
                quads = np.concatenate((pairs, -pairs), axis=-1).reshape(*x.shape[:-1], -1)
                x = np.concatenate((x[..., :1], -x[..., :1], quads), axis=-1)
            values = evaluate(x if rows is None else x.reshape(len(rows), -1), rows)
            values = np.asarray(values, dtype=float).reshape(-1, x.shape[-1])
            if inf == 2:  # f(x) + f(-x), at the centre and at each abscissa
                quads = values[:, 2:].reshape(len(values), -1, 4)
                pairs = np.stack((quads[..., 0] + quads[..., 2], quads[..., 1] + quads[..., 3]), axis=-1)
                values = np.hstack((values[:, :1] + values[:, 1:2], pairs.reshape(len(values), -1)))
            values = ((values / t) / t).tolist()
    if hlgths is None:
        return [rule.apply(row[0], row[1::2], row[2::2], hlgth) for row in values]
    return [rule.apply(row[0], row[1::2], row[2::2], h) for row, h in zip(values, hlgths)]


def _first_stop(result: float, abserr: float, resabs: float, resasc: float) -> int | None:
    """The error code with which QUADPACK stops after its first rule, or None
    where it goes on to bisect."""
    errbnd = _fmax(_EPSABS, _EPSREL * abs(result))
    ier = 2 if abserr <= 100.0 * _EPMACH * resabs and abserr > errbnd else 0
    if ier or (abserr <= errbnd and abserr != resasc) or abserr == 0.0:
        return ier
    return None


def qag(f: Callable, a: float, b: float, points=None) -> tuple | list[tuple]:
    """``dqagse`` on finite (a, b), ``dqagie`` where an end is infinite, to 1e-12
    absolute or 1e-10 relative error, with at most 300 subintervals.

    Returns (result, abserr, last, ier): the estimate, its error estimate,
    the number of subintervals and QUADPACK's error code (0, or a key of
    :data:`REASONS`).  Needs a < b.  ``f`` maps a 1-D array of nodes to
    their values: the first rule's nodes, then at each bisection both
    halves' nodes in turn.

    With ``points`` (a numpy array or scalar) it integrates one integrand per
    point in lockstep and returns one such tuple per point, in flattened
    order.  At the first step ``f(nodes, points)`` takes one 1-D array of
    nodes shared by every point and gives ``points.shape + (nodes.size,)``.
    At each later step ``f(nodes, live)`` takes ``live``, the points still
    bisecting, flattened (shape (r,)), and their nodes, one row per point
    with both halves' nodes in turn (shape (r, 2n)), and gives that shape.
    Each point follows the steps it follows alone, to the same tuple.  One
    call of ``f`` per step: a row the first rule settles takes no generator.
    """

    def evaluate(nodes, rows):
        if points is None:
            return f(nodes.reshape(-1))
        return f(nodes, points if rows is None else np.ravel(points)[rows])

    inf, boun = 0, 0.0
    if math.isinf(a) or math.isinf(b):
        inf = 2 if math.isinf(a) and math.isinf(b) else (1 if math.isinf(b) else -1)
        boun = 0.0 if inf == 2 else (a if inf == 1 else b)
        a, b = 0.0, 1.0
    out, live = _ruled(evaluate, None, (a, b), inf, boun), {}
    for i, (result, abserr, resabs, resasc) in enumerate(out):
        ier = _first_stop(result, abserr, resabs, resasc)
        if ier is None:
            routine = _bisect(a, b, result, abserr, resabs, resasc)
            live[i] = (routine, next(routine))
        else:
            out[i] = (result, abserr, 1, ier)
    while live:
        rows = list(live)
        ruled = _ruled(evaluate, rows, [end for i in rows for end in live[i][1]], inf, boun)
        for i, halves in zip(rows, zip(ruled[::2], ruled[1::2])):
            routine = live[i][0]
            try:
                live[i] = (routine, routine.send(halves))
            except StopIteration as stop:
                out[i] = stop.value
                del live[i]
    return out[0] if points is None else out


def _bisect(a: float, b: float, result: float, abserr: float, defabs: float, resabs: float):
    """The rest of :func:`qag` on one row after a first rule on (a, b) that did not
    stop it: a generator that yields the two halves ((a1, b1), (a2, b2)) of each
    bisection, is sent their rule tuples, and returns (result, abserr, last, ier)."""
    limit = _LIMIT
    # QUADPACK's lists, 1-based; rlist2 holds the epsilon table (52 entries)
    alist, blist = [0.0] * (limit + 1), [0.0] * (limit + 1)
    rlist, elist = [0.0] * (limit + 1), [0.0] * (limit + 1)
    iord = [0] * (limit + 1)
    rlist2, res3la = [0.0] * 53, [0.0] * 4
    alist[1], blist[1] = a, b

    dres = abs(result)
    rlist[1], elist[1], iord[1] = result, abserr, 1
    rlist2[1] = result
    errmax, maxerr = abserr, 1
    area, errsum = result, abserr
    abserr = _OFLOW
    nrmax, nres, numrl2, ktmin = 1, 0, 2, 0
    extrap = noext = False
    ier = ierro = iroff1 = iroff2 = iroff3 = 0
    ksgn = 1 if dres >= (1.0 - 50.0 * _EPMACH) * defabs else -1
    small = erlarg = ertest = correc = 0.0

    for last in range(2, limit + 1):
        # bisect the subinterval with the nrmax-th largest error estimate
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        (area1, error1, _, defab1), (area2, error2, _, defab2) = yield (a1, b1), (a2, b2)
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12) or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = _fmax(_EPSABS, _EPSREL * abs(area))
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if _fmax(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4
        # append the two halves, the larger error first
        if error2 > error1:
            alist[maxerr] = a2
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1
        else:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2
        maxerr, errmax, nrmax = _dqpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            return _summed(rlist, last), errsum, last, _reported(ier)
        if ier != 0:
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg -= erlast
        if abs(b1 - a1) > small:
            erlarg += erro12
        if not extrap:
            # is the interval to bisect next the smallest one?
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if not (ierro == 3 or erlarg <= ertest):
            # the smallest interval has the largest error: before bisecting, bisect
            # the larger intervals' errors down (erlarg), then extrapolate
            jupbnd = limit + 3 - last if last > 2 + limit // 2 else last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue
        # extrapolate
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _dqelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if not abseps >= abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = _fmax(_EPSABS, _EPSREL * abs(reseps))
            if abserr <= ertest:
                break
        # prepare to bisect the smallest interval
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small *= 0.5
        erlarg = errsum

    # the final result and error estimate
    if abserr == _OFLOW:
        return _summed(rlist, last), errsum, last, _reported(ier)
    if ier + ierro != 0:
        if ierro == 3:
            abserr += correc
        if ier == 0:
            ier = 3
        if result != 0.0 and area != 0.0:
            if abserr / abs(result) > errsum / abs(area):
                return _summed(rlist, last), errsum, last, _reported(ier)
        elif abserr > errsum:
            return _summed(rlist, last), errsum, last, _reported(ier)
        elif area == 0.0:
            return result, abserr, last, _reported(ier)
    # test on divergence
    if not (ksgn == -1 and _fmax(abs(result), abs(area)) <= defabs * 0.01):
        with np.errstate(all="ignore"):
            ratio = float(np.float64(result) / area)
        if 0.01 > ratio or ratio > 100.0 or errsum > abs(area):
            ier = 6
    return result, abserr, last, _reported(ier)


def _reported(ier: int) -> int:
    return ier - 1 if ier > 2 else ier


def _summed(rlist: list, last: int) -> float:
    result = 0.0
    for k in range(1, last + 1):
        result += rlist[k]
    return result


def _dqpsrt(limit: int, last: int, maxerr: int, elist: list, iord: list, nrmax: int) -> tuple:
    """Keep ``iord`` descending in error after subinterval ``maxerr`` was bisected
    into itself and ``last``; returns (maxerr, errmax, nrmax), the next to bisect."""
    if last <= 2:
        iord[1], iord[2] = 1, 2
        maxerr = iord[nrmax]
        return maxerr, elist[maxerr], nrmax
    errmax = elist[maxerr]
    for _ in range(nrmax - 1):
        isucc = iord[nrmax - 1]
        if errmax <= elist[isucc]:
            break
        iord[nrmax] = isucc
        nrmax -= 1
    # the list kept in order shrinks as fewer subdivisions remain
    jupbn = limit + 3 - last if last > limit // 2 + 2 else last
    errmin = elist[last]
    jbnd = jupbn - 1
    for i in range(nrmax + 1, jbnd + 1):
        isucc = iord[i]
        if errmax >= elist[isucc]:
            # insert errmax here, then errmin bottom-up
            iord[i - 1] = maxerr
            k = jbnd
            for _ in range(i, jbnd + 1):
                isucc = iord[k]
                if errmin < elist[isucc]:
                    iord[k + 1] = last
                    break
                iord[k + 1] = isucc
                k -= 1
            else:
                iord[i] = last
            break
        iord[i - 1] = isucc
    else:
        iord[jbnd] = maxerr
        iord[jupbn] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _dqelg(n: int, epstab: list, res3la: list, nres: int) -> tuple:
    """Wynn's epsilon algorithm on the table ``epstab[1..n]``; returns (n, result,
    abserr, nres), n the table's new length."""
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n < 3:
        return n, result, _fmax(abserr, 5.0 * _EPMACH * abs(result)), nres
    limexp = 50
    epstab[n + 2] = epstab[n]
    newelm = (n - 1) // 2
    epstab[n] = _OFLOW
    num = k1 = n
    for i in range(1, newelm + 1):
        k2, k3 = k1 - 1, k1 - 2
        res = epstab[k1 + 2]
        e0, e1, e2 = epstab[k3], epstab[k2], res
        e1abs = abs(e1)
        delta2 = e2 - e1
        err2 = abs(delta2)
        tol2 = _fmax(abs(e2), e1abs) * _EPMACH
        delta3 = e1 - e0
        err3 = abs(delta3)
        tol3 = _fmax(e1abs, abs(e0)) * _EPMACH
        if not (err2 > tol2 or err3 > tol3):
            # e0, e1 and e2 agree to machine accuracy: converged
            return n, res, _fmax(err2 + err3, 5.0 * _EPMACH * abs(res)), nres
        e3 = epstab[k1]
        epstab[k1] = e1
        delta1 = e1 - e3
        err1 = abs(delta1)
        tol1 = _fmax(e1abs, abs(e3)) * _EPMACH
        if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
            n = i + i - 1  # two elements too close: cut the table here
            break
        ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
        epsinf = abs(ss * e1)
        if not epsinf > 1e-4:
            n = i + i - 1  # irregular behaviour: cut the table here
            break
        res = e1 + 1.0 / ss
        epstab[k1] = res
        k1 -= 2
        error = err2 + abs(res - e2) + err3
        if error > abserr:
            continue
        abserr = error
        result = res
    # shift the table
    if n == limexp:
        n = 2 * (limexp // 2) - 1
    ib = 1 if num % 2 else 2
    for _ in range(newelm + 1):
        epstab[ib] = epstab[ib + 2]
        ib += 2
    if num != n:
        indx = num - n + 1
        for i in range(1, n + 1):
            epstab[i] = epstab[indx]
            indx += 1
    if nres < 4:
        res3la[nres] = result
        abserr = _OFLOW
    else:
        abserr = abs(result - res3la[3]) + abs(result - res3la[2]) + abs(result - res3la[1])
        res3la[1], res3la[2], res3la[3] = res3la[2], res3la[3], result
    return n, result, _fmax(abserr, 5.0 * _EPMACH * abs(result)), nres
