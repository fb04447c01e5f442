//! CSV import/export for datasets.
//!
//! Lets users bring their *own* tabular data into the FL pipeline (the
//! cross-silo scenarios the paper motivates — banking records, hospital
//! discharges — live in CSV-shaped systems) and export synthetic datasets
//! for inspection in external tools. Format: one sample per line,
//! `label,feature_0,feature_1,…`; a `#`-prefixed header carries the sample
//! shape and class count so round-trips are lossless.

use crate::{DataError, Dataset, Result};
use dinar_tensor::Tensor;
use std::fmt::Write as _;
use std::path::Path;

/// Serializes a dataset to the CSV format described in the module docs.
pub fn to_csv(dataset: &Dataset) -> String {
    let mut out = String::new();
    let shape: Vec<String> = dataset
        .sample_shape()
        .iter()
        .map(|d| d.to_string())
        .collect();
    let _ = writeln!(
        out,
        "# dinar-dataset v1 classes={} shape={}",
        dataset.num_classes(),
        shape.join("x")
    );
    let d = dataset.feature_len();
    let x = dataset.features().as_slice();
    for (i, &label) in dataset.labels().iter().enumerate() {
        let _ = write!(out, "{label}");
        for j in 0..d {
            let _ = write!(out, ",{}", x[i * d + j]);
        }
        out.push('\n');
    }
    out
}

/// Parses a dataset from the CSV format produced by [`to_csv`].
///
/// # Errors
///
/// Returns [`DataError::InvalidSpec`] for a missing/malformed header,
/// unparsable numbers, or ragged rows.
pub fn from_csv(text: &str) -> Result<Dataset> {
    let mut lines = text.lines();
    let header = lines.next().ok_or_else(|| DataError::InvalidSpec {
        reason: "empty CSV".into(),
    })?;
    let (classes, shape) = parse_header(header)?;
    let feature_len: usize = shape.iter().product();

    let mut labels = Vec::new();
    let mut data: Vec<f32> = Vec::new();
    for (lineno, line) in lines.enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let mut fields = line.split(',');
        let label: usize = fields
            .next()
            .ok_or_else(|| ragged(lineno))?
            .trim()
            .parse()
            .map_err(|_| DataError::InvalidSpec {
                reason: format!("line {}: bad label", lineno + 2),
            })?;
        labels.push(label);
        let start = data.len();
        for field in fields {
            let v: f32 = field.trim().parse().map_err(|_| DataError::InvalidSpec {
                reason: format!("line {}: bad feature value `{field}`", lineno + 2),
            })?;
            data.push(v);
        }
        if data.len() - start != feature_len {
            return Err(ragged(lineno));
        }
    }
    let n = labels.len();
    Dataset::new(
        Tensor::from_vec(data, &[n, feature_len])?,
        labels,
        &shape,
        classes,
    )
}

fn ragged(lineno: usize) -> DataError {
    DataError::InvalidSpec {
        reason: format!("line {}: wrong number of features", lineno + 2),
    }
}

fn parse_header(header: &str) -> Result<(usize, Vec<usize>)> {
    let err = |why: &str| DataError::InvalidSpec {
        reason: format!("bad CSV header ({why}): `{header}`"),
    };
    if !header.starts_with("# dinar-dataset v1") {
        return Err(err("missing magic"));
    }
    let mut classes = None;
    let mut shape = None;
    for token in header.split_whitespace() {
        if let Some(v) = token.strip_prefix("classes=") {
            classes = Some(v.parse().map_err(|_| err("bad classes"))?);
        } else if let Some(v) = token.strip_prefix("shape=") {
            let dims: std::result::Result<Vec<usize>, _> = v.split('x').map(str::parse).collect();
            shape = Some(dims.map_err(|_| err("bad shape"))?);
        }
    }
    match (classes, shape) {
        (Some(c), Some(s)) => Ok((c, s)),
        _ => Err(err("missing classes/shape")),
    }
}

/// Writes a dataset to a CSV file.
///
/// # Errors
///
/// I/O failures surface as [`DataError::InvalidSpec`] with the path.
pub fn save_csv(dataset: &Dataset, path: impl AsRef<Path>) -> Result<()> {
    std::fs::write(path.as_ref(), to_csv(dataset)).map_err(|e| DataError::InvalidSpec {
        reason: format!("cannot write {}: {e}", path.as_ref().display()),
    })
}

/// Reads a dataset from a CSV file.
///
/// # Errors
///
/// Same conditions as [`from_csv`], plus I/O failures.
pub fn load_csv(path: impl AsRef<Path>) -> Result<Dataset> {
    let text = std::fs::read_to_string(path.as_ref()).map_err(|e| DataError::InvalidSpec {
        reason: format!("cannot read {}: {e}", path.as_ref().display()),
    })?;
    from_csv(&text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dinar_tensor::Rng;

    fn toy() -> Dataset {
        let mut rng = Rng::seed_from(0);
        Dataset::new(rng.randn(&[6, 4]), vec![0, 1, 2, 0, 1, 2], &[2, 2], 3).unwrap()
    }

    #[test]
    fn csv_roundtrip_preserves_everything() {
        let original = toy();
        let restored = from_csv(&to_csv(&original)).unwrap();
        assert_eq!(restored.labels(), original.labels());
        assert_eq!(restored.num_classes(), original.num_classes());
        assert_eq!(restored.sample_shape(), original.sample_shape());
        assert!(restored.features().approx_eq(original.features(), 1e-5));
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("dinar-csv-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("data.csv");
        save_csv(&toy(), &path).unwrap();
        let restored = load_csv(&path).unwrap();
        assert_eq!(restored.len(), 6);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn malformed_inputs_rejected() {
        assert!(from_csv("").is_err());
        assert!(from_csv("no header\n1,2,3").is_err());
        assert!(from_csv("# dinar-dataset v1 classes=2\n0,1.0").is_err()); // no shape
        assert!(from_csv("# dinar-dataset v1 classes=2 shape=2\n0,1.0").is_err()); // ragged
        assert!(from_csv("# dinar-dataset v1 classes=2 shape=2\nx,1.0,2.0").is_err()); // bad label
        assert!(from_csv("# dinar-dataset v1 classes=2 shape=2\n0,1.0,oops").is_err());
    }

    #[test]
    fn blank_lines_are_skipped() {
        let csv = "# dinar-dataset v1 classes=2 shape=2\n0,1.0,2.0\n\n1,3.0,4.0\n";
        let ds = from_csv(csv).unwrap();
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.labels(), &[0, 1]);
    }
}
