//! The four served element types: how to regenerate a request's input,
//! how the server hashes a response, and the independent reference check.
//!
//! The server's checksum is FNV-1a over the output values in canonical
//! sequential order, row by row (rows of `2^n` elements). Byte encodings
//! follow `scan_serve::ServedOutput`: `i32` as 4 little-endian bytes,
//! `f64` as the 8 little-endian bytes of its bit pattern, a `SegPair` as
//! its value then one flag byte, an `AffinePair` as `a` then `b`.

use baselines::cpu_reference::sequential_inclusive;
use scan_serve::{
    request_input_f64_into, request_input_gated_into, request_input_into, request_input_seg_into,
    OpKind, ServeRequest,
};
use skeletons::{Add, AffinePair, GatedOp, Max, ScanOp, Scannable, SegPair, SegmentedAdd};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv_bytes(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// An element type a served request can carry.
pub trait BenchElem: Scannable {
    /// Append request `id`'s deterministic input (`len` elements).
    fn fetch_into(seed: u64, id: usize, len: usize, out: &mut Vec<Self>);
    /// Fold one output value into a response checksum.
    fn push(hash: u64, v: Self) -> u64;
    /// Run `f` on this thread's pooled input buffer, cleared — the serving
    /// hot path recycles its buffers the same way.
    fn with_buffer<R>(f: impl FnOnce(&mut Vec<Self>) -> R) -> R;
}

macro_rules! pooled_buffer {
    ($ty:ty) => {
        fn with_buffer<R>(f: impl FnOnce(&mut Vec<$ty>) -> R) -> R {
            thread_local! {
                static BUF: std::cell::RefCell<Vec<$ty>> = const { std::cell::RefCell::new(Vec::new()) };
            }
            BUF.with(|buf| {
                let buf = &mut *buf.borrow_mut();
                buf.clear();
                f(buf)
            })
        }
    };
}

impl BenchElem for i32 {
    fn fetch_into(seed: u64, id: usize, len: usize, out: &mut Vec<Self>) {
        request_input_into(seed, id, len, out)
    }
    fn push(hash: u64, v: Self) -> u64 {
        fnv_bytes(hash, &v.to_le_bytes())
    }
    pooled_buffer!(i32);
}

impl BenchElem for f64 {
    fn fetch_into(seed: u64, id: usize, len: usize, out: &mut Vec<Self>) {
        request_input_f64_into(seed, id, len, out)
    }
    fn push(hash: u64, v: Self) -> u64 {
        fnv_bytes(hash, &v.to_bits().to_le_bytes())
    }
    pooled_buffer!(f64);
}

impl BenchElem for SegPair<i32> {
    fn fetch_into(seed: u64, id: usize, len: usize, out: &mut Vec<Self>) {
        request_input_seg_into(seed, id, len, out)
    }
    fn push(hash: u64, v: Self) -> u64 {
        fnv_bytes(fnv_bytes(hash, &v.v.to_le_bytes()), &[v.reset as u8])
    }
    pooled_buffer!(SegPair<i32>);
}

impl BenchElem for AffinePair<f64> {
    fn fetch_into(seed: u64, id: usize, len: usize, out: &mut Vec<Self>) {
        request_input_gated_into(seed, id, len, out)
    }
    fn push(hash: u64, v: Self) -> u64 {
        let hash = fnv_bytes(hash, &v.a.to_bits().to_le_bytes());
        fnv_bytes(hash, &v.b.to_bits().to_le_bytes())
    }
    pooled_buffer!(AffinePair<f64>);
}

/// Something to run with the concrete element type and operator of an
/// [`OpKind`] (closures cannot be generic, visitors can).
pub trait OpVisitor {
    /// What the visit returns.
    type Out;
    /// Run with `T`/`O` fixed.
    fn visit<T: BenchElem, O: ScanOp<T>>(self, op: O) -> Self::Out;
}

/// Dispatch `v` on `kind`'s element type and operator.
pub fn visit_op<V: OpVisitor>(kind: OpKind, v: V) -> V::Out {
    match kind {
        OpKind::AddI32 => v.visit::<i32, _>(Add),
        OpKind::MaxF64 => v.visit::<f64, _>(Max),
        OpKind::SegSumI32 => v.visit::<SegPair<i32>, _>(SegmentedAdd),
        OpKind::GatedF64 => v.visit::<AffinePair<f64>, _>(GatedOp),
    }
}

/// The server's response path for one member: scan each row in canonical
/// sequential order and hash the scanned values as they are produced.
pub fn scan_hash<T: BenchElem, O: ScanOp<T>>(op: O, input: &[T], row: usize) -> u64 {
    let mut hash = FNV_OFFSET;
    for r in input.chunks_exact(row) {
        let mut acc = op.identity();
        for &v in r {
            acc = op.combine(acc, v);
            hash = T::push(hash, acc);
        }
    }
    hash
}

/// The independent check: `baselines::cpu_reference::sequential_inclusive`
/// per row, then FNV-1a over the materialized output.
pub fn reference_checksum<T: BenchElem, O: ScanOp<T>>(op: O, input: &[T], row: usize) -> u64 {
    input.chunks_exact(row).flat_map(|r| sequential_inclusive(op, r)).fold(FNV_OFFSET, T::push)
}

/// The checksum a correct server returns for `r`, recomputed from a
/// regenerated input with the independent reference scan.
pub fn expected_checksum(input_seed: u64, r: &ServeRequest) -> u64 {
    struct Expected<'a>(u64, &'a ServeRequest);
    impl OpVisitor for Expected<'_> {
        type Out = u64;
        fn visit<T: BenchElem, O: ScanOp<T>>(self, op: O) -> u64 {
            let Expected(seed, r) = self;
            T::with_buffer(|input| {
                T::fetch_into(seed, r.id, r.total_elems(), input);
                reference_checksum(op, input, r.problem().problem_size())
            })
        }
    }
    visit_op(r.op, Expected(input_seed, r))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_and_reference_checksums_agree_for_every_kind() {
        for (id, op) in OpKind::all().into_iter().enumerate() {
            let r = ServeRequest {
                id,
                arrival: 0.0,
                n: 6,
                g: 2,
                gpus_wanted: 1,
                priority: 0,
                tenant: 0,
                deadline: None,
                op,
            };
            struct Both<'a>(&'a ServeRequest);
            impl OpVisitor for Both<'_> {
                type Out = (u64, u64);
                fn visit<T: BenchElem, O: ScanOp<T>>(self, op: O) -> (u64, u64) {
                    let mut input = Vec::new();
                    T::fetch_into(3, self.0.id, self.0.total_elems(), &mut input);
                    let row = self.0.problem().problem_size();
                    (scan_hash(op, &input, row), reference_checksum(op, &input, row))
                }
            }
            let (fast, reference) = visit_op(op, Both(&r));
            assert_eq!(fast, reference, "{op:?}");
        }
    }
}
