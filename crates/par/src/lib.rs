//! Fork-join over a slice for the host kernels.
//!
//! [`map`] and [`for_each`] cut a `&mut` slice into chunks of a fixed
//! length and call the caller's function once per chunk, with the
//! chunk's index. Up to `workers` threads share the work: the chunks are
//! dealt out as contiguous bands, the calling thread runs the first band
//! and every other band runs on a scoped thread of its own. With one
//! worker, or one chunk, nothing is spawned and the chunks run inline,
//! in order.
//!
//! Which thread runs a chunk never changes what the chunk computes, so
//! a kernel whose chunks are independent gives the same bits at every
//! worker count. The caller chooses the count; this crate reads no core
//! count and no environment.

use std::panic;
use std::thread;

/// Calls `f(i, chunk)` for every chunk `i` of `data.chunks_mut(chunk_len)`
/// on up to `workers` threads (see the crate docs), and returns the
/// results in chunk order. A panic in any band reaches the caller once
/// every band has finished.
///
/// # Panics
/// If `chunk_len` is 0, or if `f` panics.
pub fn map<T, R, F>(data: &mut [T], chunk_len: usize, workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut [T]) -> R + Sync,
{
    assert!(chunk_len > 0, "chunk length must be positive");
    let chunks = data.len().div_ceil(chunk_len);
    if workers.min(chunks) <= 1 {
        return data
            .chunks_mut(chunk_len)
            .enumerate()
            .map(|(i, c)| f(i, c))
            .collect();
    }
    let per_band = chunks.div_ceil(workers);
    let run_band = |(b, band): (usize, &mut [T])| -> Vec<R> {
        band.chunks_mut(chunk_len)
            .enumerate()
            .map(|(i, c)| f(b * per_band + i, c))
            .collect()
    };
    let run_band = &run_band;
    let mut bands = data.chunks_mut(per_band * chunk_len).enumerate();
    let first = bands.next().expect("two or more chunks");
    thread::scope(|s| {
        let rest: Vec<_> = bands.map(|b| s.spawn(move || run_band(b))).collect();
        let mut out = run_band(first);
        for handle in rest {
            out.extend(handle.join().unwrap_or_else(|p| panic::resume_unwind(p)));
        }
        out
    })
}

/// [`map`] for a function that returns nothing.
pub fn for_each<T, F>(data: &mut [T], chunk_len: usize, workers: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    map(data, chunk_len, workers, f);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;
    use std::thread::ThreadId;

    /// Every chunk of `len` items at `chunk_len`, as `(index, first
    /// item, length)`, from the chunks' own contents.
    fn chunks_seen(len: usize, chunk_len: usize, workers: usize) -> Vec<(usize, usize, usize)> {
        let mut v: Vec<usize> = (0..len).collect();
        map(&mut v, chunk_len, workers, |i, c| (i, c[0], c.len()))
    }

    #[test]
    fn results_come_back_in_chunk_order_at_any_worker_count() {
        // n < workers, n % workers != 0, chunk lengths 1 and > n, n = 0.
        for len in [0usize, 1, 2, 5, 7, 64, 997] {
            for chunk_len in [1, 3, 16, 1000] {
                let want: Vec<_> = (0..len.div_ceil(chunk_len))
                    .map(|i| (i, i * chunk_len, chunk_len.min(len - i * chunk_len)))
                    .collect();
                for workers in [0, 1, 2, 3, 7, 64] {
                    let got = chunks_seen(len, chunk_len, workers);
                    assert_eq!(got, want, "len {len} chunk {chunk_len} workers {workers}");
                }
            }
        }
    }

    #[test]
    fn for_each_writes_every_chunk_once() {
        let mut v = vec![usize::MAX; 1000];
        for_each(&mut v, 7, 3, |i, c| {
            for x in c.iter_mut() {
                assert_eq!(*x, usize::MAX, "chunk {i} visited twice");
                *x = i;
            }
        });
        assert!(v.iter().enumerate().all(|(k, &x)| x == k / 7));
    }

    /// The thread each chunk ran on, in chunk order.
    fn threads(len: usize, chunk_len: usize, workers: usize) -> Vec<ThreadId> {
        let mut v = vec![0u8; len];
        map(&mut v, chunk_len, workers, |_, _| thread::current().id())
    }

    #[test]
    fn the_caller_runs_the_first_band_and_one_worker_runs_inline() {
        let me = thread::current().id();
        assert!(threads(10, 1, 1).iter().all(|&t| t == me));
        assert!(threads(10, 10, 4).iter().all(|&t| t == me), "one chunk");
        // 10 chunks over 4 workers: bands of 3, 3, 3, 1.
        let t = threads(10, 1, 4);
        assert!(t[..3].iter().all(|&x| x == me));
        for band in [&t[3..6], &t[6..9], &t[9..]] {
            assert!(band.iter().all(|&x| x == band[0] && x != me));
        }
        assert!(t[3] != t[6] && t[6] != t[9] && t[3] != t[9]);
    }

    fn payload(p: Box<dyn std::any::Any + Send>) -> String {
        p.downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_default()
    }

    #[test]
    fn a_panic_in_any_band_reaches_the_caller_after_every_band_ends() {
        // Chunk 0 is the caller's band, chunk 3 a spawned one; the other
        // bands still run to the end either way.
        for bad in [0, 3] {
            let done = Mutex::new(Vec::new());
            let mut v = vec![0u8; 4];
            let err = panic::catch_unwind(panic::AssertUnwindSafe(|| {
                for_each(&mut v, 1, 4, |i, _| {
                    if i == bad {
                        panic!("chunk {i} failed");
                    }
                    done.lock().expect("no holder panics").push(i);
                });
            }))
            .expect_err("the panic propagates");
            assert_eq!(payload(err), format!("chunk {bad} failed"));
            let mut done = done.into_inner().expect("no holder panics");
            done.sort();
            let others: Vec<usize> = (0..4).filter(|&i| i != bad).collect();
            assert_eq!(done, others);
        }
    }

    #[test]
    #[should_panic(expected = "chunk length must be positive")]
    fn a_zero_chunk_length_is_refused() {
        for_each(&mut [1, 2, 3], 0, 2, |_, _| {});
    }
}
