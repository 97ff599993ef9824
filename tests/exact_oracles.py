"""Fraction-at-a-time oracles for the integer-numerator exact invariants.

The library sums ``MetricTensor.inner``, ``LieAlgebra.bracket``, the
Jacobi defects, the Levi-Civita table, the curvature entries, the bivector
forms, the compiled ``A`` and ``C``, the Douglas and Berwald tests and
subspaces, the sectional curvature, the Nijenhuis tensor and the
hypercomplex checks in Python ints over memoised numerators, and runs its
eliminations (``rref``, ``spd_inverse``) fraction-free on integer rows.  The
functions here compute the same values one ``Fraction`` at a time, from the
frozen ``structure`` and ``gram`` fields alone, and the two must agree with
``==``; forms, which the library stores as symmetric monomials, are
compared as polynomials (``symmetrised``).
``oracle_nabla`` and ``oracle_of`` extend a ``Fraction`` connection or
curvature table to arbitrary vectors; the library keeps no such extension.
``oracle_find_signed_permutation_triples`` searches the signed permutation
matrices for hypercomplex triples; the library verifies a given triple and
searches for none.
"""

import itertools
from collections import defaultdict
from fractions import Fraction
from operator import mul

from lieranders import exactlinalg as xl
from lieranders.algebra import Subspace, format_combination
from lieranders.errors import DegeneratePlane, DimensionMismatch
from lieranders.hypercomplex import ComplexStructureTriple
from lieranders.riemann import ConnectionTable, CurvatureTable


# Fraction vector helpers that the library, which computes on integer rows,
# no longer keeps; tests build inputs and oracles with them


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v, strict=True))


def mat_scale(c, a):
    return tuple(xl.vec_scale(c, row) for row in a)


def format_vector(v):
    return "(" + ", ".join(map(str, v)) + ")"


def vec_is_zero(u):
    return not any(u)


def dot(u, v):
    if len(u) != len(v):
        raise DimensionMismatch(f"dot of lengths {len(u)} and {len(v)}")
    return sum((a * b for a, b in zip(u, v) if a and b), Fraction(0))


def mat_vec(m, v):
    return tuple(dot(row, v) for row in m)


def oracle_rref(rows):
    """Reduced row echelon form by Gauss-Jordan elimination in Fractions:
    (rows, pivot columns), zero rows dropped, pivots 1."""
    ncols = len(rows[0]) if rows else 0
    if any(len(r) != ncols for r in rows):
        raise DimensionMismatch(f"rows must share one length; got {sorted({len(r) for r in rows})}")
    work = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    r = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(r, len(work)) if work[i][col] != 0), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = 1 / work[r][col]
        work[r] = [x * inv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col] != 0:
                factor = work[i][col]
                work[i] = [x - factor * y for x, y in zip(work[i], work[r])]
        pivots.append(col)
        r += 1
        if r == len(work):
            break
    return tuple(tuple(row) for row in work[:r]), tuple(pivots)


def oracle_nullspace(m, ncols):
    """Canonical basis of {x : m x = 0} from ``oracle_rref``: at each free
    column j, x_j = 1 and x_c = -row[j] at the pivot column c of each row."""
    reduced, pivots = oracle_rref(m)
    basis = []
    for j in range(ncols):
        if j not in pivots:
            x = [Fraction(0)] * ncols
            x[j] = Fraction(1)
            for row, pcol in zip(reduced, pivots):
                x[pcol] = -row[j]
            basis.append(tuple(x))
    return oracle_rref(basis)[0]


def oracle_spd_inverse(a):
    """Gauss-Jordan elimination of [a | I] in Fractions without row exchanges:
    the inverse when every pivot is positive (Sylvester's criterion), else None."""
    n = len(a)
    work = [[Fraction(x) for x in row] + [Fraction(i == j) for j in range(n)]
            for i, row in enumerate(a)]
    for col, top in enumerate(work):
        pivot = top[col]
        if pivot <= 0:
            return None
        top[:] = [x / pivot for x in top]
        for row in work:
            if row is not top and row[col]:
                factor = row[col]
                row[:] = [x - factor * y for x, y in zip(row, top)]
    return tuple(tuple(row[n:]) for row in work)


def oracle_inner(metric, u, v):
    """g(u, v) = sum_ij u_i g_ij v_j in Fractions, zero factors skipped."""
    if len(u) != metric.dim or len(v) != metric.dim:
        raise DimensionMismatch("inner product operands must match the metric")
    terms = (a * g * b for a, row in zip(u, metric.gram) if a for g, b in zip(row, v) if g and b)
    return sum(terms, Fraction(0))


def oracle_bracket(algebra, u, v):
    """sum_ijk u_i v_j c_ij^k e_k in Fractions."""
    if len(u) != algebra.dim or len(v) != algebra.dim:
        raise DimensionMismatch("bracket operands must match the algebra dimension")
    out = [Fraction(0)] * algebra.dim
    for i, ui in enumerate(u):
        for j, vj in enumerate(v):
            if ui and vj:
                for k, c in enumerate(algebra.structure[i][j]):
                    if c:
                        out[k] += ui * vj * c
    return tuple(out)


def oracle_jacobi_check(algebra):
    """The Jacobi defects [[e_i,e_j],e_k] + cyclic, each a sum of two brackets."""
    violations = []
    for i, j, k in itertools.combinations(range(algebra.dim), 3):
        total = xl.zero_vector(algebra.dim)
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            inner = algebra.bracket(algebra.basis_vector(a), algebra.basis_vector(b))
            total = vec_add(total, algebra.bracket(inner, algebra.basis_vector(c)))
        if not vec_is_zero(total):
            violations.append((i, j, k, total))
    return violations


def oracle_derived_algebra(algebra):
    """[g, g] as the ``oracle_rref`` span of the basis brackets, rebuilt on each call."""
    images = [
        algebra.structure[i][j] for i in range(algebra.dim) for j in range(i + 1, algebra.dim)
    ]
    return Subspace(algebra.dim, oracle_rref(images)[0])


def oracle_ad_star(algebra, metric, v):
    """G^-1 (ad_v)^T G in Fractions, with ad_v from ``oracle_bracket``."""
    cols = [oracle_bracket(algebra, v, e) for e in algebra.basis()]
    ad_t = tuple(tuple(col) for col in cols)  # row j of (ad_v)^T is [v, e_j]
    return xl.mat_mul(metric.inverse_gram, xl.mat_mul(ad_t, metric.gram))


def oracle_levi_civita(algebra, metric):
    """gamma[i][j] = ([e_i, e_j] - ad*_{e_i} e_j - ad*_{e_j} e_i) / 2 in Fractions."""
    n = algebra.dim
    e = algebra.basis()
    stars = [oracle_ad_star(algebra, metric, e[i]) for i in range(n)]
    half = Fraction(1, 2)
    return ConnectionTable(gamma=tuple(
        tuple(
            xl.vec_scale(half, vec_sub(
                vec_sub(algebra.structure[i][j], mat_vec(stars[i], e[j])),
                mat_vec(stars[j], e[i]),
            ))
            for j in range(n)
        )
        for i in range(n)
    ))


def oracle_nabla(conn, u, v):
    """nabla_u v = sum_ij u_i v_j gamma[i][j], the bilinear extension of the
    ``Fraction`` connection table ``conn``, in Fractions."""
    out = [Fraction(0)] * conn.dim
    for i, j in itertools.product(range(conn.dim), repeat=2):
        if u[i] and v[j]:
            for k, c in enumerate(conn.gamma[i][j]):
                out[k] += u[i] * v[j] * c
    return tuple(out)


def oracle_curvature_tensor(algebra, conn):
    """R(e_i,e_j)e_k = nabla_i nabla_j e_k - nabla_j nabla_i e_k - nabla_[e_i,e_j] e_k."""
    n = algebra.dim
    e = algebra.basis()
    return CurvatureTable(r=tuple(
        tuple(
            tuple(
                vec_sub(
                    vec_sub(
                        oracle_nabla(conn, e[i], conn.gamma[j][k]),
                        oracle_nabla(conn, e[j], conn.gamma[i][k]),
                    ),
                    oracle_nabla(conn, algebra.structure[i][j], e[k]),
                )
                for k in range(n)
            )
            for j in range(n)
        )
        for i in range(n)
    ))


def oracle_of(table, u, v, w):
    """R(u,v)w, the trilinear extension of the table, summed in Fractions."""
    n = table.dim
    out = [Fraction(0)] * n
    # zero factors add nothing to the Fraction sums, so they are skipped
    for i in range(n):
        for j in range(n):
            uv = u[i] * v[j]
            if not uv:
                continue
            for k in range(n):
                c = uv * w[k]
                if c:
                    for l, val in enumerate(table.r[i][j][k]):
                        if val:
                            out[l] += c * val
    return tuple(out)


def sparse_entries(table):
    """(d, entries): the nonzero r[i][j][k][l] of a ``Fraction`` curvature
    table as (i, j, k, l, numerator) in index order, over their least common
    denominator d."""
    n = table.dim
    index = [
        (i, j, k, l)
        for i, j, k, l in itertools.product(range(n), repeat=4)
        if table.r[i][j][k][l]
    ]
    nums, d = xl.common_denominator(table.r[i][j][k][l] for i, j, k, l in index)
    return d, tuple((*ijkl, x) for ijkl, x in zip(index, nums))


def oracle_is_douglas(algebra, metric, q):
    """Orthogonality of q to every basis vector of [g, g], in Fractions."""
    evidence = []
    for b in oracle_derived_algebra(algebra).basis:
        val = oracle_inner(metric, q, b)
        if val != 0:
            evidence.append(f"g(Q, {format_combination(b, algebra.labels)}) = {val}")
    return (not evidence, evidence)


def oracle_is_berwald(algebra, metric, q):
    """nabla_{e_i} q = 0 for all i, through the Fraction connection table."""
    conn = oracle_levi_civita(algebra, metric)
    evidence = []
    for i in range(algebra.dim):
        deriv = oracle_nabla(conn, algebra.basis_vector(i), q)
        if not vec_is_zero(deriv):
            evidence.append(
                f"nabla_{algebra.labels[i]} Q = {format_combination(deriv, algebra.labels)}"
            )
    return (not evidence, evidence)


def oracle_douglas_subspace(algebra, metric):
    """The g-orthogonal complement of [g, g]: the nullspace of the Fraction
    rows G b, b in the basis of ``oracle_derived_algebra``."""
    derived, n = oracle_derived_algebra(algebra), algebra.dim
    if not derived.basis:
        return Subspace(n, xl.identity_matrix(n))
    constraints = tuple(mat_vec(metric.gram, b) for b in derived.basis)
    return Subspace(ambient_dim=n, basis=oracle_nullspace(constraints, n))


def oracle_berwald_subset(algebra, metric, within):
    """Solutions of nabla Q = 0 inside ``within``, from the Fraction
    connection table: one column nabla_{e_i} b per basis vector b."""
    if not within.basis:
        return Subspace.zero(algebra.dim)
    conn = oracle_levi_civita(algebra, metric)
    rows = []
    for i in range(algebra.dim):
        derivs = [oracle_nabla(conn, algebra.basis_vector(i), b) for b in within.basis]
        for k in range(algebra.dim):
            rows.append(tuple(d[k] for d in derivs))
    vectors = []
    for coeffs in oracle_nullspace(tuple(rows), within.dim):
        v = xl.zero_vector(algebra.dim)
        for c, b in zip(coeffs, within.basis):
            v = vec_add(v, xl.vec_scale(c, b))
        vectors.append(v)
    return Subspace(algebra.dim, oracle_rref(vectors)[0])


def oracle_sectional_curvature(algebra, metric, u, v, curvature=None):
    """g(R(u,v)v, u) / (g(u,u) g(v,v) - g(u,v)^2) through a ``Fraction``
    curvature table: ``curvature`` when given, else the one built from
    ``oracle_levi_civita`` by ``oracle_integer_curvature_tensor``."""
    g = oracle_inner
    denom = g(metric, u, u) * g(metric, v, v) - g(metric, u, v) ** 2
    if denom == 0:
        raise DegeneratePlane("u and v are linearly dependent")
    if curvature is None:
        curvature = oracle_integer_curvature_tensor(algebra, oracle_levi_civita(algebra, metric))
    return g(metric, oracle_of(curvature, u, v, v), u) / denom


def oracle_integer_curvature_tensor(algebra, conn):
    """R(e_i, e_j) e_k = sum_m (G_jk^m G_im^l - G_ik^m G_jm^l - c_ij^m G_mk^l) e_l
    from the ``Fraction`` connection table ``conn``, summed on the numerators
    of its entries and of the structure constants (i < j; the rest by
    antisymmetry)."""
    n = algebra.dim
    rn = range(n)
    gam, dg = xl.common_denominator(x for gi in conn.gamma for gij in gi for x in gij)
    c, dc = xl.common_denominator(x for si in algebra.structure for sij in si for x in sij)
    G = [[gam[(i * n + j) * n : (i * n + j + 1) * n] for j in rn] for i in rn]
    C = [[c[(i * n + j) * n : (i * n + j + 1) * n] for j in rn] for i in rn]
    d = dg * dg * dc
    zero = (xl.zero_vector(n),) * n
    r = [[zero] * n for _ in rn]
    for i in rn:
        for j in range(i + 1, n):
            rij = []
            for k in rn:
                acc = [0] * n
                for m in rn:
                    for a, row in (
                        (dc * G[j][k][m], G[i][m]),
                        (-dc * G[i][k][m], G[j][m]),
                        (-dg * C[i][j][m], G[m][k]),
                    ):
                        if a:
                            for l in rn:
                                acc[l] += a * row[l]
                rij.append(acc)
            r[i][j] = tuple(tuple(Fraction(x, d) for x in row) for row in rij)
            r[j][i] = tuple(tuple(Fraction(-x, d) for x in row) for row in rij)
    return CurvatureTable(r=tuple(tuple(row) for row in r))


def oracle_bivector_forms(algebra, metric, curvature):
    """{(a, b): g_ab}, G2 and R2 on bivectors (i < j, ``itertools.combinations``
    order) in Fractions, zeros left out: G2_(ij)(kl) = g_ik g_jl - g_il g_jk
    and R2_(ij)(kl) = -g(R(e_i,e_j)e_k, e_l), read from the ``Fraction``
    table ``curvature``."""
    g, e = metric.gram, algebra.basis()
    pairs = list(itertools.combinations(range(algebra.dim), 2))
    gram = {(a, b): x for a, row in enumerate(g) for b, x in enumerate(row)}
    g2 = {
        (s, t): g[i][k] * g[j][l] - g[i][l] * g[j][k]
        for s, (i, j) in enumerate(pairs)
        for t, (k, l) in enumerate(pairs)
    }
    r2 = {
        (s, t): -oracle_inner(metric, curvature.r[i][j][k], e[l])
        for s, (i, j) in enumerate(pairs)
        for t, (k, l) in enumerate(pairs)
    }
    return tuple({idx: x for idx, x in form.items() if x} for form in (gram, g2, r2))


def symmetrised(terms):
    """{sorted index tuple: sum of the coefficients of its permutations} of
    the form ``terms`` {index tuple: coefficient}, zero sums left out: the
    polynomial the terms stand for, in the library's storage."""
    sums = defaultdict(int)
    for idx, x in terms.items():
        sums[tuple(sorted(idx))] += x
    return {idx: x for idx, x in sums.items() if x}


def polynomial(form):
    """The exact coefficients of a library ``IntegerForm``, by stored index
    tuple: compared with ``symmetrised`` oracle forms."""
    return {idx: Fraction(num, form.d) for idx, num in form.terms.items()}


def oracle_correction_forms(r):
    """(A, C) of the Randers structure ``r`` by the pair loop, in Fractions,
    unsymmetrised and with zeros left out: A_ij = sum_m Gamma_ij^m g(e_m, Q)
    over the nonzero connection rows of ``oracle_levi_civita``, then
    C_aij = 2 sum_m A_am Gamma_ij^m over each pair of a nonzero row of A and
    a nonzero connection row."""
    n = r.dim
    conn = oracle_levi_civita(r.algebra, r.metric)
    rows = [((i, j), conn.gamma[i][j])
            for i in range(n) for j in range(n) if any(conn.gamma[i][j])]
    gq = [oracle_inner(r.metric, e, r.q_field) for e in r.algebra.basis()]
    quad, cubic = {}, {}
    twice = [[0] * n for _ in range(n)]  # 2 A_am, row a
    for (i, j), row in rows:
        x = sum(map(mul, row, gq))
        if x:
            quad[i, j] = x
            twice[i][j] = 2 * x
    for a, arow in enumerate(twice):
        if any(arow):
            for (i, j), row in rows:
                x = sum(map(mul, arow, row))
                if x:
                    cubic[a, i, j] = x
    return quad, cubic


def oracle_nijenhuis(algebra, j, u, v):
    """N(u,v) = [u,v] + J[Ju,v] + J[u,Jv] - [Ju,Jv] on left-invariant fields,
    in Fractions through ``oracle_bracket`` and ``mat_vec``."""
    if len(j) != algebra.dim:
        raise DimensionMismatch("J must act on the algebra")
    ju = mat_vec(j, u)
    jv = mat_vec(j, v)
    out = oracle_bracket(algebra, u, v)
    out = vec_add(out, mat_vec(j, oracle_bracket(algebra, ju, v)))
    out = vec_add(out, mat_vec(j, oracle_bracket(algebra, u, jv)))
    return vec_sub(out, oracle_bracket(algebra, ju, jv))


def oracle_complex_report(algebra, j):
    """(square_ok, integrable, violations) of ``verify_complex_structure``:
    the square by a ``Fraction`` product and the defects by ``oracle_nijenhuis``
    on the ``Fraction`` basis vectors."""
    n = algebra.dim
    j = tuple(tuple(Fraction(x) for x in row) for row in j)
    violations = []
    square_ok = xl.mat_mul(j, j) == mat_scale(-1, xl.identity_matrix(n))
    if not square_ok:
        violations.append("J^2 != -I")
    integrable = True
    for a, b in itertools.combinations(range(n), 2):
        nij = oracle_nijenhuis(algebra, j, xl.basis_vector(n, a), xl.basis_vector(n, b))
        if any(nij):
            integrable = False
            violations.append(f"N({algebra.labels[a]},{algebra.labels[b]}) = {format_vector(nij)}")
    return square_ok, integrable, violations


def signed_permutation_complex_candidates(dim):
    """All signed permutation matrices J with J^2 = -I, as int matrices.

    Such a J pairs the basis into 2-cycles i -> j -> i with opposite signs, so
    the search space is tiny (12 matrices in dimension 4).
    """
    if dim % 2:
        return []
    out = []

    def pairings(rest):
        if not rest:
            yield []
            return
        first = rest[0]
        for k in range(1, len(rest)):
            for sub in pairings(rest[1:k] + rest[k + 1 :]):
                yield [(first, rest[k])] + sub

    for pairing in pairings(list(range(dim))):
        for signs in itertools.product((1, -1), repeat=len(pairing)):
            m = [[0] * dim for _ in range(dim)]
            for (a, b), s in zip(pairing, signs):
                m[b][a] = s   # e_a -> s e_b
                m[a][b] = -s  # e_b -> -s e_a
            out.append(tuple(tuple(row) for row in m))
    return out


def oracle_find_signed_permutation_triples(algebra, metric=None):
    """Brute-force hypercomplex triples: every ordered pair of signed
    permutation candidates whose (J1, J2, J1 J2) satisfies the quaternion
    relations, J^2 = -I and N = 0 for each J (``oracle_complex_report``) and,
    when a metric is given, J^T G J = G for each J, all in ``Fraction``
    matrices and each pair checked from scratch."""
    candidates = [
        tuple(tuple(Fraction(x) for x in row) for row in j)
        for j in signed_permutation_complex_candidates(algebra.dim)
    ]
    found = []
    for j1, j2 in itertools.permutations(candidates, 2):
        j3 = xl.mat_mul(j1, j2)
        if j3 != mat_scale(-1, xl.mat_mul(j2, j1)):
            continue
        triple = (j1, j2, j3)
        if not all(oracle_complex_report(algebra, j)[:2] == (True, True) for j in triple):
            continue
        if metric is not None and any(
            xl.mat_mul(xl.transpose(j), xl.mat_mul(metric.gram, j)) != metric.gram for j in triple
        ):
            continue
        found.append(ComplexStructureTriple(j1=j1, j2=j2, j3=j3))
    return found
