//! Weight (de)serialization in a small self-describing binary format.
//!
//! The format is deliberately dependency-free: a magic string, a version, a
//! tensor count, and per tensor its rank, shape (u64 little-endian) and f32
//! little-endian data. Parameters are visited in the deterministic order
//! reported by [`Layer::params_mut`], so weights round-trip for any layer in
//! this crate.

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::error::NnError;
use crate::layer::Layer;

const MAGIC: &[u8; 8] = b"OARSMTNN";
const VERSION: u32 = 1;

/// Writes a layer's parameters to `writer`.
///
/// # Errors
///
/// Returns [`NnError::Io`] on write failure.
pub fn save_params<L: Layer + ?Sized, W: Write>(
    layer: &mut L,
    mut writer: W,
) -> Result<(), NnError> {
    let params = layer.params_mut();
    writer.write_all(MAGIC)?;
    writer.write_all(&VERSION.to_le_bytes())?;
    writer.write_all(&(params.len() as u64).to_le_bytes())?;
    for p in params {
        let shape = p.value.shape();
        writer.write_all(&(shape.len() as u64).to_le_bytes())?;
        for &d in shape {
            writer.write_all(&(d as u64).to_le_bytes())?;
        }
        for &v in p.value.data() {
            writer.write_all(&v.to_le_bytes())?;
        }
    }
    Ok(())
}

/// Reads parameters from `reader` into a layer with the *same architecture*
/// as the one that was saved.
///
/// The load is all or nothing: every tensor is read and validated before
/// the first one is written, so on `Err` the layer keeps its previous
/// weights. Sizes are never taken from the file: each stored shape must
/// equal the layer's own before its data is read, which bounds the staging
/// buffer by the layer's parameter count.
///
/// # Errors
///
/// * [`NnError::Io`] on read failure (including truncation),
/// * [`NnError::BadModelFile`] on a wrong magic/version or tensor count,
/// * [`NnError::ShapeMismatch`] if the stored tensors do not match the
///   layer's parameters.
pub fn load_params<L: Layer + ?Sized, R: Read>(
    layer: &mut L,
    mut reader: R,
) -> Result<(), NnError> {
    let mut magic = [0u8; 8];
    reader.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(NnError::BadModelFile("wrong magic".into()));
    }
    let version = read_u32(&mut reader)?;
    if version != VERSION {
        return Err(NnError::BadModelFile(format!(
            "unsupported version {version}"
        )));
    }
    let count = read_u64(&mut reader)?;
    let mut params = layer.params_mut();
    if count != params.len() as u64 {
        return Err(NnError::BadModelFile(format!(
            "model stores {count} tensors but the layer has {}",
            params.len()
        )));
    }
    const MAX_RANK: u64 = 8;
    let mut staged = Vec::with_capacity(params.len());
    for p in &params {
        let rank = read_u64(&mut reader)?;
        if rank > MAX_RANK {
            return Err(NnError::BadModelFile(format!("implausible rank {rank}")));
        }
        let mut shape = [0usize; MAX_RANK as usize];
        for d in &mut shape[..rank as usize] {
            *d = usize::try_from(read_u64(&mut reader)?).unwrap_or(usize::MAX);
        }
        let shape = &shape[..rank as usize];
        if shape != p.value.shape() {
            return Err(NnError::ShapeMismatch {
                expected: p.value.shape().to_vec(),
                found: shape.to_vec(),
            });
        }
        let mut data = vec![0.0f32; p.value.len()];
        read_f32s(&mut reader, &mut data)?;
        staged.push(data);
    }
    for (p, data) in params.iter_mut().zip(staged) {
        p.value.data_mut().copy_from_slice(&data);
    }
    Ok(())
}

/// Saves a layer's parameters to a file; see [`save_params`].
///
/// # Errors
///
/// Returns [`NnError::Io`] if the file cannot be created or written.
pub fn save_to_file<L: Layer + ?Sized, P: AsRef<Path>>(
    layer: &mut L,
    path: P,
) -> Result<(), NnError> {
    let file = File::create(path)?;
    save_params(layer, BufWriter::new(file))
}

/// Loads a layer's parameters from a file; see [`load_params`].
///
/// # Errors
///
/// See [`load_params`]; additionally [`NnError::Io`] if the file cannot be
/// opened.
pub fn load_from_file<L: Layer + ?Sized, P: AsRef<Path>>(
    layer: &mut L,
    path: P,
) -> Result<(), NnError> {
    let file = File::open(path)?;
    load_params(layer, BufReader::new(file))
}

fn read_u32<R: Read>(reader: &mut R) -> Result<u32, NnError> {
    let mut buf = [0u8; 4];
    reader.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

/// Reads one little-endian `u64`.
pub(crate) fn read_u64<R: Read>(reader: &mut R) -> Result<u64, NnError> {
    let mut buf = [0u8; 8];
    reader.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

/// Fills `out` with little-endian `f32`s.
pub(crate) fn read_f32s<R: Read>(reader: &mut R, out: &mut [f32]) -> Result<(), NnError> {
    let mut buf = [0u8; 4];
    for v in out {
        reader.read_exact(&mut buf)?;
        *v = f32::from_le_bytes(buf);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Initializer;
    use crate::tensor::Tensor;
    use crate::unet::{UNet3d, UNetConfig};
    use crate::workspace::NnWorkspace;

    fn cfg(seed: u64) -> UNetConfig {
        UNetConfig {
            in_channels: 2,
            base_channels: 2,
            levels: 1,
            seed,
        }
    }

    #[test]
    fn weights_round_trip_through_bytes() {
        let mut src = UNet3d::new(cfg(7));
        let mut bytes = Vec::new();
        save_params(&mut src, &mut bytes).unwrap();

        let mut dst = UNet3d::new(cfg(99)); // different init
        load_params(&mut dst, bytes.as_slice()).unwrap();

        let x = Initializer::new(1).uniform(&[2, 3, 3, 2], 1.0);
        let ys = src.infer_in(&x, &mut NnWorkspace::new());
        let yd = dst.infer_in(&x, &mut NnWorkspace::new());
        assert_eq!(ys, yd, "loaded network must reproduce saved outputs");
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let mut net = UNet3d::new(cfg(0));
        let bytes = b"NOTMODEL........".to_vec();
        assert!(matches!(
            load_params(&mut net, bytes.as_slice()),
            Err(NnError::BadModelFile(_))
        ));
    }

    #[test]
    fn truncated_file_is_an_io_error_and_leaves_the_weights() {
        // The selector architecture: half a blob covers its first tensors.
        let selector = |seed| UNetConfig {
            in_channels: 7,
            base_channels: 4,
            levels: 2,
            seed,
        };
        let mut src = UNet3d::new(selector(7));
        let mut bytes = Vec::new();
        save_params(&mut src, &mut bytes).unwrap();
        bytes.truncate(bytes.len() / 2);
        let mut dst = UNet3d::new(selector(8));
        let before = weight_bits(&mut dst);
        assert!(matches!(
            load_params(&mut dst, bytes.as_slice()),
            Err(NnError::Io(_))
        ));
        assert_eq!(
            weight_bits(&mut dst),
            before,
            "a failed load must not touch the weights"
        );
    }

    fn weight_bits(net: &mut UNet3d) -> Vec<u32> {
        net.params_mut()
            .iter()
            .flat_map(|p| p.value.data().iter().map(|v| v.to_bits()))
            .collect()
    }

    #[test]
    fn architecture_mismatch_is_detected() {
        let mut src = UNet3d::new(cfg(7));
        let mut bytes = Vec::new();
        save_params(&mut src, &mut bytes).unwrap();
        let mut wider = UNet3d::new(UNetConfig {
            base_channels: 3,
            ..cfg(7)
        });
        let err = load_params(&mut wider, bytes.as_slice()).unwrap_err();
        assert!(matches!(
            err,
            NnError::ShapeMismatch { .. } | NnError::BadModelFile(_)
        ));
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("oarsmt_nn_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("weights.bin");
        let mut src = UNet3d::new(cfg(3));
        save_to_file(&mut src, &path).unwrap();
        let mut dst = UNet3d::new(cfg(4));
        load_from_file(&mut dst, &path).unwrap();
        let x = Tensor::zeros(&[2, 2, 2, 1]);
        let mut ws = NnWorkspace::new();
        assert_eq!(src.infer_in(&x, &mut ws), dst.infer_in(&x, &mut ws));
        std::fs::remove_file(&path).ok();
    }
}
