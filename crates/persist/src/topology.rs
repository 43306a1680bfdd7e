//! Hypergraph codec.
//!
//! A committee hypergraph is fully determined by its member lists in raw
//! identifier space: the vertex set is their union, dense indices are the
//! ascending order of raw ids, and edge ids follow list order. All of that
//! is exactly how [`Hypergraph::try_new`] rebuilds the graph, so the codec
//! is just the member lists — and because the vertex set is *fixed* under
//! [`sscc_hypergraph::WorldMutation`] (mutations reject anything that would
//! isolate a process), a graph serialized after an arbitrary mutation
//! history round-trips with identical dense indices. That is the property
//! the restored per-process state vector depends on.

use sscc_hypergraph::Hypergraph;
use sscc_runtime::wire::{self, Reader};

/// Append the member lists of `h` (raw identifiers, edge order) to `out`.
///
/// Raw ids are varint-encoded: generator families use small dense ranges,
/// so a ring-1536 topology costs ~2 bytes per membership.
pub fn encode_topology(h: &Hypergraph, out: &mut Vec<u8>) {
    wire::put_usize(out, h.m());
    for e in h.edge_ids() {
        let members = h.members_raw(e);
        wire::put_usize(out, members.len());
        for raw in members {
            wire::put_varint(out, raw as u64);
        }
    }
}

/// Rebuild a hypergraph from [`encode_topology`] output.
///
/// `None` on truncation, on malformed varints, or when the member lists do
/// not describe a valid committee hypergraph (the full
/// [`Hypergraph::try_new`] validation applies — sizes, duplicates,
/// isolation, connectivity).
pub fn decode_topology(r: &mut Reader) -> Option<Hypergraph> {
    // ≥ 8 bytes (the length field) per committee, ≥ 1 per member.
    let m = r.count(8)?;
    let mut committees: Vec<Vec<u32>> = Vec::with_capacity(m);
    for _ in 0..m {
        let len = r.count(1)?;
        let mut members = Vec::with_capacity(len);
        for _ in 0..len {
            members.push(u32::try_from(r.varint()?).ok()?);
        }
        committees.push(members);
    }
    let borrowed: Vec<&[u32]> = committees.iter().map(Vec::as_slice).collect();
    Hypergraph::try_new(&borrowed).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng as _;
    use sscc_hypergraph::{generators, random_mutation};

    fn roundtrip(h: &Hypergraph) -> Hypergraph {
        let mut buf = Vec::new();
        encode_topology(h, &mut buf);
        let mut r = Reader::new(&buf);
        let back = decode_topology(&mut r).expect("decode");
        assert!(r.is_empty(), "codec consumed exactly its bytes");
        back
    }

    #[test]
    fn fixed_topologies_roundtrip() {
        for h in [
            generators::fig1(),
            generators::fig2(),
            generators::ring(12, 3),
        ] {
            let back = roundtrip(&h);
            assert_eq!(back, h);
            assert_eq!(back.n(), h.n());
            // Dense index mapping is preserved exactly.
            for v in 0..h.n() {
                assert_eq!(back.id(v), h.id(v));
            }
        }
    }

    #[test]
    fn mutated_topology_roundtrips_with_stable_indices() {
        let mut h = generators::ring(10, 3);
        let mut rng = StdRng::seed_from_u64(77);
        let mut applied = 0;
        while applied < 25 {
            let mu = random_mutation(&h, &mut rng);
            if h.apply_mutation(&mu).is_ok() {
                applied += 1;
            }
        }
        let back = roundtrip(&h);
        assert_eq!(back, h);
        for v in 0..h.n() {
            assert_eq!(back.id(v), h.id(v));
        }
        for e in h.edge_ids() {
            assert_eq!(back.members_raw(e), h.members_raw(e));
        }
    }

    #[test]
    fn truncation_is_rejected() {
        let h = generators::fig2();
        let mut buf = Vec::new();
        encode_topology(&h, &mut buf);
        wire::fails_closed(None, &buf, |b| {
            decode_topology(&mut Reader::new(b)).is_some()
        });
    }

    #[test]
    fn invalid_member_lists_are_rejected() {
        // A singleton committee violates the ≥2-members invariant.
        let mut buf = Vec::new();
        wire::put_usize(&mut buf, 1);
        wire::put_usize(&mut buf, 1);
        wire::put_varint(&mut buf, 4);
        assert!(decode_topology(&mut Reader::new(&buf)).is_none());
    }
}
