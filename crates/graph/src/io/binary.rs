//! Compact binary CSR snapshot format.
//!
//! Text formats dominate graph distribution (Matrix Market, edge lists)
//! but parse slowly; converting a dataset once and reloading the raw CSR
//! arrays makes repeated benchmarking of the paper's suite practical.
//!
//! Layout (all little-endian):
//!
//! ```text
//! magic   "GVEG"           4 bytes
//! version u16              currently 1
//! flags   u16              reserved, 0
//! |V|     u64
//! arcs    u64
//! offsets u64 × (|V| + 1)
//! targets u32 × arcs
//! weights f32 × arcs
//! ```

use crate::io::IoError;
use crate::{CsrGraph, EdgeWeight, VertexId};
use std::io::{Read, Write};

const MAGIC: &[u8; 4] = b"GVEG";
const VERSION: u16 = 1;
/// Magic, version, flags, |V| and arcs.
const HEADER_LEN: usize = 4 + 2 + 2 + 8 + 8;

fn parse_err(message: impl Into<String>) -> IoError {
    IoError::Parse {
        line: 0,
        message: message.into(),
    }
}

/// Serializes a graph into the binary snapshot format.
pub fn encode(graph: &CsrGraph) -> Vec<u8> {
    let n = graph.num_vertices();
    let arcs = graph.num_arcs();
    let mut buf = Vec::with_capacity(HEADER_LEN + 8 * (n + 1) + 4 * arcs + 4 * arcs);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&0u16.to_le_bytes());
    buf.extend_from_slice(&(n as u64).to_le_bytes());
    buf.extend_from_slice(&(arcs as u64).to_le_bytes());
    for &o in graph.offsets() {
        buf.extend_from_slice(&o.to_le_bytes());
    }
    for &t in graph.targets() {
        buf.extend_from_slice(&t.to_le_bytes());
    }
    for &w in graph.weights() {
        buf.extend_from_slice(&w.to_le_bytes());
    }
    buf
}

/// The vertex and arc counts a header declares, if the body they imply
/// fits in `available` bytes: `None` for a truncated body, and for a
/// corrupt header whose sizes overflow.
fn checked_counts(n: u64, arcs: u64, available: usize) -> Option<(usize, usize)> {
    let n = usize::try_from(n).ok()?;
    let arcs = usize::try_from(arcs).ok()?;
    let need = n
        .checked_add(1)?
        .checked_mul(8)?
        .checked_add(arcs.checked_mul(8)?)?;
    (need <= available).then_some((n, arcs))
}

/// Deserializes a graph from the binary snapshot format.
pub fn decode(data: &[u8]) -> Result<CsrGraph, IoError> {
    let Some((header, body)) = data.split_first_chunk::<HEADER_LEN>() else {
        return Err(parse_err("truncated header"));
    };
    if &header[..4] != MAGIC {
        return Err(parse_err("bad magic (not a GVEG file)"));
    }
    let version = u16::from_le_bytes([header[4], header[5]]);
    if version != VERSION {
        return Err(parse_err(format!("unsupported version {version}")));
    }
    let n = u64::from_le_bytes(header[8..16].try_into().unwrap());
    let arcs = u64::from_le_bytes(header[16..24].try_into().unwrap());
    let Some((n, arcs)) = checked_counts(n, arcs, body.len()) else {
        return Err(parse_err(format!(
            "truncated body: header declares {n} vertices and {arcs} arcs, have {} bytes",
            body.len()
        )));
    };
    let (offset_bytes, rest) = body.split_at(8 * (n + 1));
    let (target_bytes, rest) = rest.split_at(4 * arcs);
    let weight_bytes = &rest[..4 * arcs];
    let offsets: Vec<u64> = offset_bytes
        .chunks_exact(8)
        .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
        .collect();
    let targets: Vec<VertexId> = target_bytes
        .chunks_exact(4)
        .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
        .collect();
    let weights: Vec<EdgeWeight> = weight_bytes
        .chunks_exact(4)
        .map(|b| f32::from_le_bytes(b.try_into().unwrap()))
        .collect();
    CsrGraph::try_from_raw(offsets, targets, weights)
        .map_err(|e| parse_err(format!("invalid CSR payload: {e}")))
}

/// Writes the binary snapshot to a writer.
pub fn write_binary<W: Write>(graph: &CsrGraph, mut writer: W) -> std::io::Result<()> {
    writer.write_all(&encode(graph))
}

/// Reads a binary snapshot from a reader.
pub fn read_binary<R: Read>(mut reader: R) -> Result<CsrGraph, IoError> {
    let mut data = Vec::new();
    reader.read_to_end(&mut data)?;
    decode(&data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn sample() -> CsrGraph {
        GraphBuilder::from_edges(
            5,
            &[
                (0, 1, 1.5),
                (1, 2, 2.0),
                (2, 3, 0.25),
                (3, 4, 4.0),
                (0, 0, 7.0),
            ],
        )
    }

    #[test]
    fn roundtrip_preserves_graph_exactly() {
        let g = sample();
        let decoded = decode(&encode(&g)).unwrap();
        assert_eq!(decoded, g);
    }

    #[test]
    fn roundtrip_through_io_traits() {
        let g = sample();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        assert_eq!(read_binary(buf.as_slice()).unwrap(), g);
    }

    #[test]
    fn empty_graph_roundtrips() {
        let g = CsrGraph::empty(0);
        assert_eq!(decode(&encode(&g)).unwrap(), g);
        let g3 = CsrGraph::empty(3);
        assert_eq!(decode(&encode(&g3)).unwrap(), g3);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut data = encode(&sample());
        data[0] = b'X';
        let err = decode(&data).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
    }

    #[test]
    fn rejects_wrong_version() {
        let mut data = encode(&sample());
        data[4] = 99;
        assert!(decode(&data).unwrap_err().to_string().contains("version"));
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let data = encode(&sample());
        for cut in [0, 3, 8, 20, data.len() - 1] {
            assert!(decode(&data[..cut]).is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn rejects_header_whose_sizes_overflow() {
        // |V| = 2^61 - 1 with 0 arcs: 8 * (|V| + 1) overflows a u64.
        let mut data = Vec::new();
        data.extend_from_slice(MAGIC);
        data.extend_from_slice(&VERSION.to_le_bytes());
        data.extend_from_slice(&0u16.to_le_bytes());
        data.extend_from_slice(&((1u64 << 61) - 1).to_le_bytes());
        data.extend_from_slice(&0u64.to_le_bytes());
        assert_eq!(data.len(), 24);
        let err = decode(&data).unwrap_err();
        assert!(err.to_string().contains("truncated body"), "{err}");
    }

    #[test]
    fn rejects_corrupt_payload() {
        let g = sample();
        let mut data = encode(&g);
        // Corrupt a target id to be out of range: targets start after
        // header (24) + offsets (8 * (n + 1)).
        let target_base = 24 + 8 * (g.num_vertices() + 1);
        data[target_base] = 0xFF;
        data[target_base + 1] = 0xFF;
        data[target_base + 2] = 0xFF;
        data[target_base + 3] = 0xFF;
        assert!(decode(&data)
            .unwrap_err()
            .to_string()
            .contains("invalid CSR"));
    }

    #[test]
    fn large_random_graph_roundtrips() {
        let g = crate::builder::GraphBuilder::from_edges(
            1000,
            &(0..5000u32)
                .map(|i| {
                    (
                        (i * 7919) % 1000,
                        (i * 104729) % 1000,
                        (i % 13) as f32 + 0.5,
                    )
                })
                .collect::<Vec<_>>(),
        );
        assert_eq!(decode(&encode(&g)).unwrap(), g);
    }
}
