"""Adaptive Gauss-Kronrod quadrature: QUADPACK's qagse and qagie in Python.

A port of the two QUADPACK drivers the constants checks need (Piessens,
de Doncker-Kapenga, Ueberhuber and Kahaner, QUADPACK, Springer 1983):

- qagse on a finite interval, with the 21-point Gauss-Kronrod rule qk21;
- qagie on (a, inf) or (-inf, inf), with the 15-point rule qk15i applied
  after the map x = a + (1 - t)/t onto t in (0, 1].

Both share one adaptive loop: bisect the subinterval with the largest
error estimate (qpsrt keeps the error list ordered) and, once the
smallest intervals carry the error, extrapolate the sequence of areas with
Wynn's epsilon algorithm (qelg).  Every floating-point operation and
comparison follows the Fortran source in order, so value and error
estimate equal those of scipy.integrate.quad bit for bit
(tests/test_quadrature.py holds them against it).  EPSABS and LIMIT are
scipy's defaults.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, List, Tuple

EPSABS = 1.49e-8
LIMIT = 50
LIMEXP = 50  # length of the epsilon table of qelg

EPMACH = sys.float_info.epsilon  # d1mach(4)
UFLOW = sys.float_info.min  # d1mach(1)
OFLOW = sys.float_info.max  # d1mach(2)

# qk21: Kronrod abscissae (odd indices are the 10-point Gauss nodes) and
# weights, centre last, and the Gauss weights
XGK21 = (0.995657163025808080735527280689003,
         0.973906528517171720077964012084452,
         0.930157491355708226001207180059508,
         0.865063366688984510732096688423493,
         0.780817726586416897063717578345042,
         0.679409568299024406234327365114874,
         0.562757134668604683339000099272694,
         0.433395394129247190799265943165784,
         0.294392862701460198131126603103866,
         0.148874338981631210884826001129720,
         0.0)
WGK21 = (0.011694638867371874278064396062192,
         0.032558162307964727478818972459390,
         0.054755896574351996031381300244580,
         0.075039674810919952767043140916190,
         0.093125454583697605535065465083366,
         0.109387158802297641899210590325805,
         0.123491976262065851077729364193296,
         0.134709217311473325928054001771707,
         0.142775938577060080797094273138717,
         0.147739104901338491374841515972068,
         0.149445554002916905664936468389821)
WG10 = (0.066671344308688137593568809893332,
        0.149451349150580593145776339657697,
        0.219086362515982043995534934228163,
        0.269266719309996355091226921569469,
        0.295524224714752870173892994651338)

# qk15i: Kronrod abscissae and weights, centre last, and the 7-point
# Gauss weights laid out on the same abscissae (zero at Kronrod-only nodes)
XGK15 = (0.991455371120812639206854697526329,
         0.949107912342758524526189684047851,
         0.864864423359769072789712788640926,
         0.741531185599394439863864773280788,
         0.586087235467691130294144838258730,
         0.405845151377397166906606412076961,
         0.207784955007898467600689403773245,
         0.0)
WGK15 = (0.022935322010529224963732008058970,
         0.063092092629978553290700663189204,
         0.104790010322250183839876322541518,
         0.140653259715525918745189590510238,
         0.169004726639267902826583426598550,
         0.190350578064785409913256402421014,
         0.204432940075298892414161999234649,
         0.209482141084727828012999174891714)
WG7 = (0.0, 0.129484966168869693270611432679082,
       0.0, 0.279705391489276667901467771423780,
       0.0, 0.381830050505118944950369775488975,
       0.0, 0.417959183673469387755102040816327)

Rule = Callable[[float, float], Tuple[float, float, float, float]]


def quad(f: Callable[[float], float], a: float, b: float,
         epsrel: float) -> Tuple[float, float]:
    """(integral of f over (a, b), absolute error estimate).

    a < b; b may be inf, and a may be -inf when b is.
    """
    if not a < b or (a == -math.inf and b != math.inf):
        raise ValueError("quad needs a < b, and b = inf where a = -inf")
    if b == math.inf:
        both = a == -math.inf
        boun = 0.0 if both else a
        return _adaptive(lambda lo, hi: _qk15i(f, boun, both, lo, hi),
                         0.0, 1.0, epsrel)
    return _adaptive(lambda lo, hi: _qk21(f, lo, hi), a, b, epsrel)


def _finish(resk, resg, fc, fv1, fv2, wgk, hlgth, dhlgth, resabs):
    """The common tail of qk21 and qk15i: (result, abserr, resabs, resasc),
    the error from |Kronrod - Gauss| scaled by the mean deviation resasc."""
    reskh = resk * 0.5
    resasc = wgk[-1] * abs(fc - reskh)
    for j in range(len(fv1)):
        resasc = resasc + wgk[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > UFLOW / (50.0 * EPMACH):
        abserr = max((EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def _qk21(f, a, b):
    """qk21 on (a, b): (result, abserr, resabs, resasc)."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    resg = 0.0
    fc = f(centr)
    resk = WGK21[10] * fc
    resabs = abs(resk)
    fv1 = [0.0] * 10
    fv2 = [0.0] * 10
    # the Gauss nodes first, then the Kronrod-only ones
    for j, jk in enumerate((1, 3, 5, 7, 9, 0, 2, 4, 6, 8)):
        absc = hlgth * XGK21[jk]
        fval1 = f(centr - absc)
        fval2 = f(centr + absc)
        fv1[jk] = fval1
        fv2[jk] = fval2
        fsum = fval1 + fval2
        if j < 5:
            resg = resg + WG10[j] * fsum
        resk = resk + WGK21[jk] * fsum
        resabs = resabs + WGK21[jk] * (abs(fval1) + abs(fval2))
    return _finish(resk, resg, fc, fv1, fv2, WGK21, hlgth, abs(hlgth), resabs)


def _qk15i(f, boun, both, a, b):
    """qk15i on (a, b) inside (0, 1], mapped back to (boun, inf), and
    folded onto it from (-inf, inf) if both: (result, abserr, resabs,
    resasc)."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    tabsc1 = boun + (1.0 - centr) / centr
    fval1 = f(tabsc1)
    if both:
        fval1 = fval1 + f(-tabsc1)
    fc = (fval1 / centr) / centr
    resg = WG7[7] * fc
    resk = WGK15[7] * fc
    resabs = abs(resk)
    fv1 = [0.0] * 7
    fv2 = [0.0] * 7
    for j in range(7):
        absc = hlgth * XGK15[j]
        absc1 = centr - absc
        absc2 = centr + absc
        tabsc1 = boun + (1.0 - absc1) / absc1
        tabsc2 = boun + (1.0 - absc2) / absc2
        fval1 = f(tabsc1)
        fval2 = f(tabsc2)
        if both:
            fval1 = fval1 + f(-tabsc1)
            fval2 = fval2 + f(-tabsc2)
        fval1 = (fval1 / absc1) / absc1
        fval2 = (fval2 / absc2) / absc2
        fv1[j] = fval1
        fv2[j] = fval2
        fsum = fval1 + fval2
        resg = resg + WG7[j] * fsum
        resk = resk + WGK15[j] * fsum
        resabs = resabs + WGK15[j] * (abs(fval1) + abs(fval2))
    return _finish(resk, resg, fc, fv1, fv2, WGK15, hlgth, hlgth, resabs)


def _adaptive(rule: Rule, a: float, b: float,
              epsrel: float) -> Tuple[float, float]:
    """The adaptive loop of qagse and qagie, with QUADPACK's 1-based list
    indices and its labels in comments.  The error flag ier only steers
    the loop and is not returned: the callers check every value against
    a closed form."""
    epsabs, limit = EPSABS, LIMIT
    alist = [0.0] * (limit + 1)
    blist = [0.0] * (limit + 1)
    rlist = [0.0] * (limit + 1)
    elist = [0.0] * (limit + 1)
    iord = [0] * (limit + 1)
    rlist2 = [0.0] * (LIMEXP + 3)
    res3la = [0.0] * 4
    alist[1] = a
    blist[1] = b
    result, abserr, defabs, resabs = rule(a, b)
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    rlist[1] = result
    elist[1] = abserr
    if ((abserr <= 100.0 * EPMACH * defabs and abserr > errbnd)  # roundoff
            or (abserr <= errbnd and abserr != resabs) or abserr == 0.0):
        return result, abserr

    ier = 0
    rlist2[1] = result
    errmax = abserr
    maxerr = 1
    area = result
    errsum = abserr
    abserr = OFLOW
    nrmax = 1
    nres = 0
    numrl2 = 2
    ktmin = 0
    extrap = False
    noext = False
    ierro = 0
    iroff1 = iroff2 = iroff3 = 0
    small = erlarg = ertest = correc = 0.0

    sum_all = False
    for last in range(2, limit + 1):
        # bisect the subinterval with the nrmax-th largest error estimate
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, _, defab1 = rule(a1, b1)
        area2, error2, _, defab2 = rule(a2, b2)

        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12)
                    or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(epsabs, epsrel * abs(area))
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2  # roundoff
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= ((1.0 + 100.0 * EPMACH)
                                     * (abs(a2) + 1000.0 * UFLOW)):
            ier = 4  # bad integrand behaviour at a point
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
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            sum_all = True  # go to 115
            break
        if ier != 0:
            break  # go to 100
        if last == 2:  # label 80
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # is the interval to be bisected next the smallest one?
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if not (ierro == 3 or erlarg <= ertest):  # label 40
            # the smallest interval has the largest error: before
            # extrapolating, bisect the larger intervals (erlarg) first
            jupbnd = last
            if last > 2 + limit // 2:
                jupbnd = limit + 3 - last
            large = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    large = True
                    break
                nrmax += 1
            if large:
                continue
        # label 60: extrapolate
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if not abseps >= abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break  # go to 100
        # label 70: prepare bisection of the smallest interval
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        erlarg = errsum

    if not sum_all:  # label 100: keep the extrapolated result?
        if abserr == OFLOW:
            sum_all = True
        elif ier + ierro != 0:
            if ierro == 3:
                abserr = abserr + correc
            if result == 0.0 or area == 0.0:
                sum_all = abserr > errsum
            else:
                sum_all = abserr / abs(result) > errsum / abs(area)
    if sum_all:  # label 115
        result = 0.0
        for k in range(1, last + 1):
            result = result + rlist[k]
        abserr = errsum
    return result, abserr


def _qpsrt(limit: int, last: int, maxerr: int, elist: List[float],
           iord: List[int], nrmax: int) -> Tuple[int, float, int]:
    """Keep iord ordering elist descending over the intervals that can
    still be bisected; returns (maxerr, errmax, nrmax)."""
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
    else:
        errmax = elist[maxerr]
        for _ in range(nrmax - 1):
            # subdivision raised the error: move it up past nrmax
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax -= 1
        jupbn = last
        if last > limit // 2 + 2:
            jupbn = limit + 3 - last
        errmin = elist[last]
        jbnd = jupbn - 1
        # insert errmax top-down
        i = nrmax + 1
        while i <= jbnd:
            isucc = iord[i]
            if errmax >= elist[isucc]:
                break
            iord[i - 1] = isucc
            i += 1
        if i > jbnd:  # label 50
            iord[jbnd] = maxerr
            iord[jupbn] = last
        else:  # label 60: insert errmin bottom-up
            iord[i - 1] = maxerr
            k = jbnd
            for _ in range(i, jbnd + 1):
                if errmin < elist[iord[k]]:
                    break
                iord[k + 1] = iord[k]
                k -= 1
            iord[k + 1] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _qelg(n: int, epstab: List[float], res3la: List[float],
          nres: int) -> Tuple[int, float, float, int]:
    """One step of Wynn's epsilon algorithm on epstab[1..n]; returns
    (n, result, abserr, nres) and updates epstab and res3la in place."""
    nres += 1
    abserr = OFLOW
    result = epstab[n]
    if n < 3:
        return n, result, max(abserr, 5.0 * EPMACH * abs(result)), nres
    epstab[n + 2] = epstab[n]
    newelm = (n - 1) // 2
    epstab[n] = OFLOW
    num = n
    k1 = n
    for i in range(1, newelm + 1):
        k2 = k1 - 1
        k3 = k1 - 2
        res = epstab[k1 + 2]
        e0 = epstab[k3]
        e1 = epstab[k2]
        e2 = res
        e1abs = abs(e1)
        delta2 = e2 - e1
        err2 = abs(delta2)
        tol2 = max(abs(e2), e1abs) * EPMACH
        delta3 = e1 - e0
        err3 = abs(delta3)
        tol3 = max(e1abs, abs(e0)) * EPMACH
        if not (err2 > tol2 or err3 > tol3):
            # e0, e1 and e2 agree to machine accuracy: converged
            result = res
            abserr = err2 + err3
            return n, result, max(abserr, 5.0 * EPMACH * abs(result)), nres
        e3 = epstab[k1]
        epstab[k1] = e1
        delta1 = e1 - e3
        err1 = abs(delta1)
        tol1 = max(e1abs, abs(e3)) * EPMACH
        if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
            n = i + i - 1  # two elements too close: drop the table's tail
            break
        ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
        epsinf = abs(ss * e1)
        if not epsinf > 1e-4:
            n = i + i - 1  # irregular behaviour: drop the table's tail
            break
        res = e1 + 1.0 / ss
        epstab[k1] = res
        k1 = k1 - 2
        error = err2 + abs(res - e2) + err3
        if not error > abserr:
            abserr = error
            result = res
    # label 50: shift the table
    if n == LIMEXP:
        n = 2 * (LIMEXP // 2) - 1
    ib = 2 if num % 2 == 0 else 1
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
        abserr = OFLOW
    else:
        abserr = (abs(result - res3la[3]) + abs(result - res3la[2])
                  + abs(result - res3la[1]))
        res3la[1] = res3la[2]
        res3la[2] = res3la[3]
        res3la[3] = result
    return n, result, max(abserr, 5.0 * EPMACH * abs(result)), nres
