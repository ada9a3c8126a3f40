//! Typed host-side array storage bound to program arrays.

use accparse::ast::CType;
use gpsim::{Ty, Value};

fn machine_ty(ct: CType) -> Ty {
    match ct {
        CType::Int => Ty::I32,
        CType::Long => Ty::I64,
        CType::Float => Ty::F32,
        CType::Double => Ty::F64,
    }
}

/// A host array: element type plus raw little-endian storage, the host
/// half of an OpenACC data clause.
#[derive(Debug, Clone, PartialEq)]
pub struct HostBuffer {
    ty: CType,
    len: usize,
    data: Vec<u8>,
}

impl HostBuffer {
    /// A zero-filled buffer of `len` elements of `ty`.
    pub fn new(ty: CType, len: usize) -> Self {
        HostBuffer {
            ty,
            len,
            data: vec![0; len * ty.size()],
        }
    }

    /// One element of `ty` per item of `elems`, each item's little-endian
    /// bytes written in place into storage sized exactly once (no
    /// per-element `Value`).
    pub(crate) fn from_le_bytes<const N: usize>(
        ty: CType,
        elems: impl ExactSizeIterator<Item = [u8; N]>,
    ) -> Self {
        assert_eq!(N, ty.size(), "element width of {ty}");
        let mut b = HostBuffer::new(ty, elems.len());
        for (out, e) in b.data.chunks_exact_mut(N).zip(elems) {
            out.copy_from_slice(&e);
        }
        b
    }

    /// Build from `i32` data.
    pub fn from_i32(vals: &[i32]) -> Self {
        Self::from_le_bytes(CType::Int, vals.iter().map(|v| v.to_le_bytes()))
    }

    /// Build from `i64` data.
    pub fn from_i64(vals: &[i64]) -> Self {
        Self::from_le_bytes(CType::Long, vals.iter().map(|v| v.to_le_bytes()))
    }

    /// Build from `f32` data (bit-exact, NaN payloads included).
    pub fn from_f32(vals: &[f32]) -> Self {
        Self::from_le_bytes(CType::Float, vals.iter().map(|v| v.to_le_bytes()))
    }

    /// Build from `f64` data (bit-exact, NaN payloads included).
    pub fn from_f64(vals: &[f64]) -> Self {
        Self::from_le_bytes(CType::Double, vals.iter().map(|v| v.to_le_bytes()))
    }

    /// Element type.
    pub fn ty(&self) -> CType {
        self.ty
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the buffer has no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read element `i`.
    pub fn get(&self, i: usize) -> Value {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        Value::from_bytes(machine_ty(self.ty), &self.data[i * self.ty.size()..])
    }

    /// Write element `i` (converted to the buffer's type).
    pub fn set(&mut self, i: usize, v: Value) {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        let v = v.convert(machine_ty(self.ty));
        let (bytes, n) = v.to_bytes();
        self.data[i * self.ty.size()..i * self.ty.size() + n].copy_from_slice(&bytes[..n]);
    }

    /// Raw bytes (for device transfers).
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// Mutable raw bytes (for device transfers).
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// All elements widened to `f64` (verification helper).
    pub fn to_f64_vec(&self) -> Vec<f64> {
        (0..self.len).map(|i| self.get(i).as_f64()).collect()
    }

    /// All elements as `i64` (verification helper).
    pub fn to_i64_vec(&self) -> Vec<i64> {
        (0..self.len).map(|i| self.get(i).as_i64()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_types() {
        let b = HostBuffer::from_i32(&[1, -2, 3]);
        assert_eq!(b.get(1), Value::I32(-2));
        assert_eq!(b.len(), 3);
        let b = HostBuffer::from_f64(&[1.5, -2.5]);
        assert_eq!(b.get(0), Value::F64(1.5));
        let b = HostBuffer::from_f32(&[0.25]);
        assert_eq!(b.get(0), Value::F32(0.25));
        let b = HostBuffer::from_i64(&[1 << 40]);
        assert_eq!(b.get(0), Value::I64(1 << 40));
    }

    #[test]
    fn set_converts() {
        let mut b = HostBuffer::new(CType::Float, 2);
        b.set(0, Value::F64(2.5));
        assert_eq!(b.get(0), Value::F32(2.5));
        b.set(1, Value::I32(3));
        assert_eq!(b.get(1), Value::F32(3.0));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_panics() {
        let b = HostBuffer::new(CType::Int, 1);
        let _ = b.get(1);
    }

    #[test]
    fn helpers() {
        let b = HostBuffer::from_i32(&[4, 5]);
        assert_eq!(b.to_i64_vec(), vec![4, 5]);
        assert_eq!(b.to_f64_vec(), vec![4.0, 5.0]);
        assert_eq!(b.bytes().len(), 8);
        assert!(!b.is_empty());
        assert!(HostBuffer::new(CType::Int, 0).is_empty());
    }
}
