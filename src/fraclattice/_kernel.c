/* One noise block of the lattice step: the numpy kernel of solver._step_loop, in C.

   The state is site-major, d sites of m values each.  w holds the block's steps + 1 noise
   nodes, and node k of the states lands at out + k stride: stride 0 steps out in place.
   Every element goes through the numpy kernel's operations in the numpy kernel's order,
   so built without floating-point contraction (-ffp-contract=off) the two agree bit for
   bit.  u holds d m values and f 2 d m, both scratch. */

typedef struct {
    long d, m, periodic, cubic;
    double neg_c, kappa, neg_b;
    const double *g;
} lattice;

/* f = F(u): ((((u (-c)) + kappa u_{i-1}) + kappa u_{i+1}) + (u u u) (-b)) + g at each site
   i, a missing neighbour skipped under zero padding */
static void drift(const lattice *p, const double *u, double *f)
{
    long d = p->d, m = p->m, periodic = p->periodic, cubic = p->cubic;
    double neg_c = p->neg_c, kappa = p->kappa, neg_b = p->neg_b;
    for (long i = 0; i < d; i++) {
        const double *x = u + i * m, *left = i > 0 ? x - m : periodic ? u + (d - 1) * m : 0,
                     *right = i < d - 1 ? x + m : periodic ? u : 0;
        double g = p->g[i], *y = f + i * m;
        for (long j = 0; j < m; j++) {
            double s = x[j] * neg_c;
            if (left)
                s += left[j] * kappa;
            if (right)
                s += right[j] * kappa;
            if (cubic)
                s += x[j] * x[j] * x[j] * neg_b;
            y[j] = s + g;
        }
    }
}

/* Steps the block; returns 0, or the first step after which the squares of the state,
   summed in order, pass guard (NaN included), where the caller steps the block anew. */
long step_block(long d, long m, long periodic, long cubic, long heun, double neg_c,
                double kappa, double neg_b, double dt, double half_dt, double guard,
                const double *g, double *u, double *f, long steps, const double *w,
                double *out, long stride)
{
    lattice p = {d, m, periodic, cubic, neg_c, kappa, neg_b, g};
    long n = d * m;
    double *f1 = f + n;
    for (long k = 1; k <= steps; k++) {
        const double *v = out + (k - 1) * stride, *w0 = w + (k - 1) * n, *w1 = w0 + n;
        double *next = out + k * stride, total = 0.0;
        for (long a = 0; a < n; a++)
            u[a] = v[a] + w0[a];
        drift(&p, u, f);
        if (heun) {
            for (long a = 0; a < n; a++)
                u[a] = ((f[a] * dt) + v[a]) + w1[a];
            drift(&p, u, f1);
            for (long a = 0; a < n; a++)
                next[a] = v[a] + ((f[a] + f1[a]) * half_dt);
        } else {
            for (long a = 0; a < n; a++)
                next[a] = v[a] + (f[a] * dt);
        }
        for (long a = 0; a < n; a++)
            total += next[a] * next[a];
        if (!(total <= guard))
            return k;
    }
    return 0;
}
