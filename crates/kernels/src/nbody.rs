//! Gravitational N-body — the space-sciences Grand Challenge kernel.
//!
//! Direct O(n²) summation (sequential and parallel) and a Barnes–Hut
//! quadtree (O(n log n)) with an opening angle θ. Leapfrog (kick-drift-
//! kick) integration. Plummer softening keeps close encounters finite.

use des::rng::Rng;

/// Gravitational constant in simulation units.
pub const G: f64 = 1.0;

/// A 2-D body.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Body {
    pub x: f64,
    pub y: f64,
    pub vx: f64,
    pub vy: f64,
    pub mass: f64,
}

/// A cold uniform disc of `n` equal-mass bodies (deterministic per seed).
pub fn random_cluster(n: usize, seed: u64) -> Vec<Body> {
    let mut rng = Rng::new(seed);
    (0..n)
        .map(|_| {
            let r = rng.next_f64().sqrt();
            let th = rng.range_f64(0.0, std::f64::consts::TAU);
            // Small tangential velocity for partial rotation support.
            let vt = 0.3 * r;
            Body {
                x: r * th.cos(),
                y: r * th.sin(),
                vx: -vt * th.sin() + 0.05 * rng.normal(0.0, 1.0),
                vy: vt * th.cos() + 0.05 * rng.normal(0.0, 1.0),
                mass: 1.0 / n as f64,
            }
        })
        .collect()
}

#[inline]
fn pair_accel(xi: f64, yi: f64, xj: f64, yj: f64, mj: f64, eps2: f64) -> (f64, f64) {
    let dx = xj - xi;
    let dy = yj - yi;
    let r2 = dx * dx + dy * dy + eps2;
    let inv_r = 1.0 / r2.sqrt();
    let inv_r3 = inv_r * inv_r * inv_r;
    (G * mj * dx * inv_r3, G * mj * dy * inv_r3)
}

/// Direct-summation accelerations, sequential.
pub fn accel_direct(bodies: &[Body], eps: f64) -> Vec<(f64, f64)> {
    accel_direct_with(bodies, eps, 1)
}

/// Direct-summation accelerations, the target bodies shared out over
/// [`des::host_cores`] workers. Bit-identical to [`accel_direct`].
pub fn accel_direct_par(bodies: &[Body], eps: f64) -> Vec<(f64, f64)> {
    accel_direct_with(bodies, eps, crate::workers(true))
}

fn accel_direct_with(bodies: &[Body], eps: f64, workers: usize) -> Vec<(f64, f64)> {
    let eps2 = eps * eps;
    per_body(bodies, workers, |bi, a| {
        for bj in bodies {
            if (bi.x, bi.y) != (bj.x, bj.y) {
                let (ax, ay) = pair_accel(bi.x, bi.y, bj.x, bj.y, bj.mass, eps2);
                a.0 += ax;
                a.1 += ay;
            }
        }
    })
}

/// The acceleration of each body in order, each summed from zero by
/// `accumulate(body, &mut acc)` on one of `workers` workers.
fn per_body(
    bodies: &[Body],
    workers: usize,
    accumulate: impl Fn(&Body, &mut (f64, f64)) + Sync,
) -> Vec<(f64, f64)> {
    let mut acc = vec![(0.0, 0.0); bodies.len()];
    par::for_each(&mut acc, 1, workers, |i, a| {
        accumulate(&bodies[i], &mut a[0])
    });
    acc
}

// ----- Barnes–Hut quadtree --------------------------------------------------

struct QuadNode {
    // Square region [cx ± half, cy ± half].
    cx: f64,
    cy: f64,
    half: f64,
    mass: f64,
    // Centre of mass.
    mx: f64,
    my: f64,
    children: Option<Box<[QuadNode; 4]>>,
    body: Option<usize>,
}

impl QuadNode {
    fn leaf(cx: f64, cy: f64, half: f64) -> QuadNode {
        QuadNode {
            cx,
            cy,
            half,
            mass: 0.0,
            mx: 0.0,
            my: 0.0,
            children: None,
            body: None,
        }
    }

    fn quadrant(&self, x: f64, y: f64) -> usize {
        (usize::from(x >= self.cx)) | (usize::from(y >= self.cy) << 1)
    }

    fn child_centre(&self, q: usize) -> (f64, f64) {
        let h = self.half / 2.0;
        (
            self.cx + if q & 1 == 1 { h } else { -h },
            self.cy + if q & 2 == 2 { h } else { -h },
        )
    }

    fn insert(&mut self, idx: usize, bodies: &[Body], depth: usize) {
        let b = &bodies[idx];
        if self.mass == 0.0 && self.children.is_none() {
            // Empty leaf: take the body.
            self.body = Some(idx);
            self.mass = b.mass;
            self.mx = b.x;
            self.my = b.y;
            return;
        }
        // Depth guard: coincident points collapse into one aggregate leaf.
        if depth > 64 {
            let m = self.mass + b.mass;
            self.mx = (self.mx * self.mass + b.x * b.mass) / m;
            self.my = (self.my * self.mass + b.y * b.mass) / m;
            self.mass = m;
            return;
        }
        if self.children.is_none() {
            // Split: push the resident body down.
            let resident = self.body.take().expect("occupied leaf");
            let mk = |q: usize| {
                let (cx, cy) = self.child_centre(q);
                QuadNode::leaf(cx, cy, self.half / 2.0)
            };
            self.children = Some(Box::new([mk(0), mk(1), mk(2), mk(3)]));
            let rq = self.quadrant(bodies[resident].x, bodies[resident].y);
            self.children.as_mut().unwrap()[rq].insert(resident, bodies, depth + 1);
        }
        let q = self.quadrant(b.x, b.y);
        self.children.as_mut().unwrap()[q].insert(idx, bodies, depth + 1);
        // Update aggregate mass / centre of mass.
        let m = self.mass + b.mass;
        self.mx = (self.mx * self.mass + b.x * b.mass) / m;
        self.my = (self.my * self.mass + b.y * b.mass) / m;
        self.mass = m;
    }

    fn accel_on(&self, x: f64, y: f64, theta: f64, eps2: f64, out: &mut (f64, f64)) {
        if self.mass == 0.0 {
            return;
        }
        if self.body.is_some() {
            if (self.mx, self.my) == (x, y) {
                return; // self-interaction
            }
            let (ax, ay) = pair_accel(x, y, self.mx, self.my, self.mass, eps2);
            out.0 += ax;
            out.1 += ay;
            return;
        }
        let dx = self.mx - x;
        let dy = self.my - y;
        let d2 = dx * dx + dy * dy;
        let size = 2.0 * self.half;
        if self.children.is_none() || size * size < theta * theta * d2 {
            // Far enough (or an aggregated deep leaf): use the multipole.
            let (ax, ay) = pair_accel(x, y, self.mx, self.my, self.mass, eps2);
            out.0 += ax;
            out.1 += ay;
        } else if let Some(ch) = &self.children {
            for c in ch.iter() {
                c.accel_on(x, y, theta, eps2, out);
            }
        }
    }
}

/// Build a quadtree and evaluate accelerations with opening angle
/// `theta` (0.5 is the classic choice), the target bodies shared out
/// over [`des::host_cores`] workers. No bodies, no accelerations.
pub fn accel_barnes_hut(bodies: &[Body], theta: f64, eps: f64) -> Vec<(f64, f64)> {
    if bodies.is_empty() {
        return Vec::new();
    }
    let (mut lo_x, mut hi_x, mut lo_y, mut hi_y) = (
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::INFINITY,
        f64::NEG_INFINITY,
    );
    for b in bodies {
        lo_x = lo_x.min(b.x);
        hi_x = hi_x.max(b.x);
        lo_y = lo_y.min(b.y);
        hi_y = hi_y.max(b.y);
    }
    let half = 0.5 * ((hi_x - lo_x).max(hi_y - lo_y)).max(1e-12) * 1.0001;
    let mut root = QuadNode::leaf(0.5 * (lo_x + hi_x), 0.5 * (lo_y + hi_y), half);
    for i in 0..bodies.len() {
        root.insert(i, bodies, 0);
    }
    let eps2 = eps * eps;
    per_body(bodies, crate::workers(true), |b, a| {
        root.accel_on(b.x, b.y, theta, eps2, a);
    })
}

/// Which force evaluator a step uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Forces {
    Direct,
    DirectPar,
    /// Barnes–Hut with θ encoded ×1000 (e.g. 500 ⇒ θ = 0.5).
    BarnesHut(u32),
}

/// One leapfrog (kick-drift-kick) step.
pub fn step(bodies: &mut [Body], dt: f64, eps: f64, forces: Forces) {
    let eval = |bs: &[Body]| match forces {
        Forces::Direct => accel_direct(bs, eps),
        Forces::DirectPar => accel_direct_par(bs, eps),
        Forces::BarnesHut(t) => accel_barnes_hut(bs, t as f64 / 1000.0, eps),
    };
    let acc = eval(bodies);
    for (b, (ax, ay)) in bodies.iter_mut().zip(&acc) {
        b.vx += 0.5 * dt * ax;
        b.vy += 0.5 * dt * ay;
        b.x += dt * b.vx;
        b.y += dt * b.vy;
    }
    let acc = eval(bodies);
    for (b, (ax, ay)) in bodies.iter_mut().zip(&acc) {
        b.vx += 0.5 * dt * ax;
        b.vy += 0.5 * dt * ay;
    }
}

/// Total momentum (px, py).
pub fn momentum(bodies: &[Body]) -> (f64, f64) {
    bodies.iter().fold((0.0, 0.0), |(px, py), b| {
        (px + b.mass * b.vx, py + b.mass * b.vy)
    })
}

/// Total energy (kinetic + softened potential), direct evaluation.
pub fn energy(bodies: &[Body], eps: f64) -> f64 {
    let eps2 = eps * eps;
    let mut e = 0.0;
    for (i, bi) in bodies.iter().enumerate() {
        e += 0.5 * bi.mass * (bi.vx * bi.vx + bi.vy * bi.vy);
        for bj in &bodies[i + 1..] {
            let dx = bj.x - bi.x;
            let dy = bj.y - bi.y;
            e -= G * bi.mass * bj.mass / (dx * dx + dy * dy + eps2).sqrt();
        }
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_body_symmetry() {
        let bodies = vec![
            Body {
                x: -1.0,
                y: 0.0,
                vx: 0.0,
                vy: 0.0,
                mass: 1.0,
            },
            Body {
                x: 1.0,
                y: 0.0,
                vx: 0.0,
                vy: 0.0,
                mass: 1.0,
            },
        ];
        let a = accel_direct(&bodies, 0.0);
        assert!(a[0].0 > 0.0 && a[1].0 < 0.0, "mutual attraction");
        assert!((a[0].0 + a[1].0).abs() < 1e-15, "Newton's third law");
        assert!((a[0].0 - 0.25).abs() < 1e-12, "G·m/r² at r=2");
    }

    /// No bodies and one body: every evaluator returns one zero
    /// acceleration per body, and a step moves a lone body in a straight
    /// line.
    #[test]
    fn evaluators_agree_on_zero_and_one_body() {
        let lone = Body {
            x: 0.25,
            y: -0.5,
            vx: 1.0,
            vy: 2.0,
            mass: 3.0,
        };
        for forces in [Forces::Direct, Forces::DirectPar, Forces::BarnesHut(500)] {
            let mut none: Vec<Body> = Vec::new();
            step(&mut none, 0.1, 0.01, forces);
            assert!(none.is_empty(), "{forces:?}");
            let mut one = vec![lone];
            step(&mut one, 0.5, 0.01, forces);
            assert_eq!((one[0].x, one[0].y), (0.75, 0.5), "{forces:?}");
            assert_eq!((one[0].vx, one[0].vy), (1.0, 2.0), "{forces:?}");
        }
        assert!(accel_barnes_hut(&[], 0.5, 0.01).is_empty());
        assert_eq!(accel_direct(&[lone], 0.01), vec![(0.0, 0.0)]);
        assert_eq!(accel_direct_par(&[lone], 0.01), vec![(0.0, 0.0)]);
        assert_eq!(accel_barnes_hut(&[lone], 0.5, 0.01), vec![(0.0, 0.0)]);
    }

    #[test]
    fn parallel_matches_sequential() {
        let bodies = random_cluster(200, 3);
        let s = accel_direct(&bodies, 0.01);
        let p = accel_direct_par(&bodies, 0.01);
        for (a, b) in s.iter().zip(&p) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn barnes_hut_approximates_direct() {
        let bodies = random_cluster(500, 7);
        let exact = accel_direct(&bodies, 0.05);
        let approx = accel_barnes_hut(&bodies, 0.5, 0.05);
        // Bodies near the centre have |F| ~ 0 by cancellation, so pure
        // relative error is meaningless there; normalise by the typical
        // force magnitude as well.
        let mean: f64 = exact
            .iter()
            .map(|e| (e.0 * e.0 + e.1 * e.1).sqrt())
            .sum::<f64>()
            / exact.len() as f64;
        let mut rels: Vec<f64> = exact
            .iter()
            .zip(&approx)
            .map(|(e, a)| {
                let ne = (e.0 * e.0 + e.1 * e.1).sqrt();
                let da = ((e.0 - a.0).powi(2) + (e.1 - a.1).powi(2)).sqrt();
                da / ne.max(0.1 * mean)
            })
            .collect();
        rels.sort_by(f64::total_cmp);
        let med = rels[rels.len() / 2];
        let p95 = rels[rels.len() * 95 / 100];
        assert!(med < 0.02, "median relative force error {med}");
        assert!(p95 < 0.10, "p95 relative force error {p95}");
    }

    #[test]
    fn barnes_hut_theta_zero_is_exact() {
        let bodies = random_cluster(100, 9);
        let exact = accel_direct(&bodies, 0.05);
        let bh = accel_barnes_hut(&bodies, 0.0, 0.05);
        for (e, a) in exact.iter().zip(&bh) {
            assert!((e.0 - a.0).abs() < 1e-9 && (e.1 - a.1).abs() < 1e-9);
        }
    }

    #[test]
    fn momentum_conserved_direct() {
        let mut bodies = random_cluster(100, 11);
        let (px0, py0) = momentum(&bodies);
        for _ in 0..20 {
            step(&mut bodies, 1e-3, 0.05, Forces::Direct);
        }
        let (px1, py1) = momentum(&bodies);
        assert!((px1 - px0).abs() < 1e-12 && (py1 - py0).abs() < 1e-12);
    }

    #[test]
    fn energy_roughly_conserved_leapfrog() {
        let mut bodies = random_cluster(80, 13);
        let e0 = energy(&bodies, 0.05);
        for _ in 0..100 {
            step(&mut bodies, 5e-4, 0.05, Forces::Direct);
        }
        let e1 = energy(&bodies, 0.05);
        assert!(
            ((e1 - e0) / e0.abs()).abs() < 0.02,
            "energy drift {}",
            (e1 - e0) / e0.abs()
        );
    }

    #[test]
    fn coincident_bodies_do_not_blow_up() {
        let bodies = vec![
            Body {
                x: 0.5,
                y: 0.5,
                vx: 0.0,
                vy: 0.0,
                mass: 1.0,
            },
            Body {
                x: 0.5,
                y: 0.5,
                vx: 0.0,
                vy: 0.0,
                mass: 1.0,
            },
            Body {
                x: -0.5,
                y: 0.0,
                vx: 0.0,
                vy: 0.0,
                mass: 1.0,
            },
        ];
        let a = accel_barnes_hut(&bodies, 0.5, 0.01);
        assert!(a.iter().all(|(x, y)| x.is_finite() && y.is_finite()));
    }

    #[test]
    fn cluster_is_deterministic() {
        assert_eq!(random_cluster(50, 42), random_cluster(50, 42));
        assert_ne!(random_cluster(50, 42), random_cluster(50, 43));
    }
}
