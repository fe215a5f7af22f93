//! Property tests for the collective library: correctness of every
//! data collective across random machine shapes, roots, and payloads.
//!
//! Each property is a plain loop over seeded cases: case `c` draws its
//! inputs from `Rng::new(K ^ c)`, `K` being the constant in that test's
//! `Rng::new` call, and prints them first, so a failure's last printed
//! line names the case that replays it.

use delta_mesh::{presets, Comm, Machine};
use des::rng::Rng;
use std::sync::Arc;

fn machine(rows: usize, cols: usize) -> Machine {
    Machine::new(presets::delta(rows, cols))
}

/// Every member receives the root's exact data, for any shape, root
/// and length (16 cases).
#[test]
fn bcast_delivers_exact_data() {
    for case in 0..16 {
        let mut rng = Rng::new(0xBCA5_0001 ^ case);
        let rows = rng.range_u64(1, 3) as usize;
        let cols = rng.range_u64(1, 4) as usize;
        let root = rng.below((rows * cols) as u64) as usize;
        let len = rng.range_u64(1, 39) as usize;
        println!("case {case}: rows {rows} cols {cols} root {root} len {len}");
        let data: Vec<f64> = (0..len).map(|_| rng.range_f64(-5.0, 5.0)).collect();
        let expect = data.clone();
        let m = machine(rows, cols);
        let (out, _) = m.run(move |node| {
            let data = data.clone();
            async move {
                let comm = Comm::world(&node);
                let payload = (comm.me() == root).then(|| Arc::from(data.as_slice()));
                comm.bcast(root, payload).await.to_vec()
            }
        });
        for v in out {
            assert_eq!(&v, &expect);
        }
    }
}

/// Every member holds the element-wise sum of all inputs (16 cases).
#[test]
fn allreduce_sum_matches_reference() {
    for case in 0..16 {
        let mut rng = Rng::new(0xA11D_0002 ^ case);
        let rows = rng.range_u64(1, 3) as usize;
        let cols = rng.range_u64(1, 4) as usize;
        let len = rng.range_u64(1, 19) as usize;
        println!("case {case}: rows {rows} cols {cols} len {len}");
        let p = rows * cols;
        let inputs: Vec<Vec<f64>> = (0..p)
            .map(|_| (0..len).map(|_| rng.range_f64(-3.0, 3.0)).collect())
            .collect();
        let mut reference = vec![0.0f64; len];
        for row in &inputs {
            for (r, v) in reference.iter_mut().zip(row) {
                *r += v;
            }
        }
        let m = machine(rows, cols);
        let (out, _) = m.run(move |node| {
            let mine = inputs[node.rank()].clone();
            async move {
                let comm = Comm::world(&node);
                comm.allreduce_sum(&mine).await
            }
        });
        for v in out {
            for (a, b) in v.iter().zip(&reference) {
                assert!((a - b).abs() < 1e-10 * (1.0 + b.abs()), "{a} vs {b}");
            }
        }
    }
}

/// Every member holds all blocks, in rank order (16 cases).
#[test]
fn allgather_orders_blocks() {
    for case in 0..16 {
        let mut rng = Rng::new(0xA119_0003 ^ case);
        let rows = rng.range_u64(1, 3) as usize;
        let cols = rng.range_u64(1, 4) as usize;
        let blk = rng.range_u64(1, 7) as usize;
        println!("case {case}: rows {rows} cols {cols} blk {blk}");
        let p = rows * cols;
        let blocks: Vec<Vec<f64>> = (0..p)
            .map(|_| (0..blk).map(|_| rng.range_f64(0.0, 9.0)).collect())
            .collect();
        let expect: Vec<f64> = blocks.iter().flatten().copied().collect();
        let m = machine(rows, cols);
        let (out, _) = m.run(move |node| {
            let mine = blocks[node.rank()].clone();
            async move {
                let comm = Comm::world(&node);
                comm.allgather(&mine).await
            }
        });
        for v in out {
            assert_eq!(&v, &expect);
        }
    }
}

/// Member `j` receives chunk `j` of every member `i`, in rank order
/// (16 cases).
#[test]
fn alltoall_is_transpose() {
    for case in 0..16 {
        let mut rng = Rng::new(0xA112_0004 ^ case);
        let rows = rng.range_u64(1, 2) as usize;
        let cols = rng.range_u64(1, 4) as usize;
        println!("case {case}: rows {rows} cols {cols}");
        let p = rows * cols;
        // chunk[i][j][0] encodes (i, j) uniquely.
        let chunks: Vec<Vec<Vec<f64>>> = (0..p)
            .map(|i| {
                (0..p)
                    .map(|j| vec![(i * p + j) as f64, rng.next_f64()])
                    .collect()
            })
            .collect();
        let reference = chunks.clone();
        let m = machine(rows, cols);
        let (out, _) = m.run(move |node| {
            let mine = chunks[node.rank()].clone();
            async move {
                let comm = Comm::world(&node);
                comm.alltoall(mine).await
            }
        });
        for (j, got) in out.iter().enumerate() {
            for (i, chunk) in got.iter().enumerate() {
                assert_eq!(chunk, &reference[i][j], "member {} chunk {}", j, i);
            }
        }
    }
}

/// Member `i` receives the sum of the values of members `0..=i`
/// (16 cases).
#[test]
fn scan_prefixes_are_consistent() {
    for case in 0..16 {
        let mut rng = Rng::new(0x5CA2_0005 ^ case);
        let rows = rng.range_u64(1, 3) as usize;
        let cols = rng.range_u64(1, 4) as usize;
        println!("case {case}: rows {rows} cols {cols}");
        let p = rows * cols;
        let values: Vec<f64> = (0..p).map(|_| rng.range_f64(-2.0, 2.0)).collect();
        let vals = values.clone();
        let m = machine(rows, cols);
        let (out, _) = m.run(move |node| {
            let mine = vals[node.rank()];
            async move {
                let comm = Comm::world(&node);
                comm.scan_sum(&[mine]).await[0]
            }
        });
        let mut acc = 0.0;
        for (i, got) in out.iter().enumerate() {
            acc += values[i];
            assert!((got - acc).abs() < 1e-12, "member {i}: {got} vs {acc}");
        }
    }
}

/// Only the root holds the reduction, and it equals what allreduce gives
/// every member (16 cases).
#[test]
fn reduce_and_allreduce_agree() {
    for case in 0..16 {
        let mut rng = Rng::new(0x02ED_0006 ^ case);
        let rows = rng.range_u64(1, 3) as usize;
        let cols = rng.range_u64(1, 3) as usize;
        let p = rows * cols;
        let root = rng.below(p as u64) as usize;
        println!("case {case}: rows {rows} cols {cols} root {root}");
        let values: Vec<f64> = (0..p).map(|_| rng.range_f64(-1.0, 1.0)).collect();
        let vals = values.clone();
        let m = machine(rows, cols);
        let (out, _) = m.run(move |node| {
            let mine = vals[node.rank()];
            async move {
                let comm = Comm::world(&node);
                let red = comm.reduce_sum(root, &[mine]).await;
                let all = comm.allreduce_sum(&[mine]).await[0];
                (red.map(|v| v[0]), all)
            }
        });
        let all_val = out[0].1;
        for (i, (red, all)) in out.iter().enumerate() {
            assert!((all - all_val).abs() < 1e-12);
            if i == root {
                let r = red.expect("root holds reduction");
                assert!((r - all).abs() < 1e-10, "{r} vs {all}");
            } else {
                assert!(red.is_none());
            }
        }
    }
}
