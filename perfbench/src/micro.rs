//! Codec and scheduler rows driven by a workload's own pages: the HPACK
//! header lists its requests and responses carry, the DATA frame sizes its
//! bodies are cut into, and the stream counts of its main connections.

use crate::report::median;
use h2push_h2proto::{
    DefaultScheduler, Frame, PrioritySpec, PriorityTree, Scheduler, StreamSnapshot,
    DEFAULT_MAX_FRAME_SIZE,
};
use h2push_hpack::{Decoder, Encoder, Header};
use h2push_webmodel::Page;
use std::hint::black_box;
use std::time::Instant;

/// Timed repeats per row; each row reports the median repeat.
const REPEATS: usize = 15;

/// What the rows are driven by, taken from the workload's pages.
pub struct Shapes {
    /// Per page: the request and response header lists of every resource,
    /// in resource order (one HPACK context per page).
    header_lists: Vec<Vec<Vec<Header>>>,
    /// DATA payload sizes: every body cut into frames of at most 16 KiB.
    data_sizes: Vec<usize>,
    /// Streams on the main connection of each page.
    stream_counts: Vec<usize>,
}

impl Shapes {
    pub fn of(pages: &[&Page]) -> Shapes {
        let mut header_lists = Vec::new();
        let mut data_sizes = Vec::new();
        let mut stream_counts = Vec::new();
        for page in pages {
            let mut lists = Vec::new();
            for r in &page.resources {
                lists.push(vec![
                    Header::new(":method", "GET"),
                    Header::new(":scheme", "https"),
                    Header::new(":authority", page.host_of(r.id)),
                    Header::new(":path", &r.path),
                ]);
                lists.push(vec![
                    Header::new(":status", "200"),
                    Header::new("content-type", r.rtype.mime()),
                    Header::new("content-length", &r.size.to_string()),
                ]);
                let mut left = r.size;
                while left > 0 {
                    let n = left.min(DEFAULT_MAX_FRAME_SIZE);
                    data_sizes.push(n);
                    left -= n;
                }
            }
            header_lists.push(lists);
            stream_counts.push(page.pushable().len() + 1);
        }
        Shapes { header_lists, data_sizes, stream_counts }
    }

    /// Median ns to HPACK-encode and to decode one header block.
    pub fn hpack_ns(&self) -> (f64, f64) {
        let blocks: usize = self.header_lists.iter().map(Vec::len).sum();
        let mut enc_ns = Vec::new();
        let mut dec_ns = Vec::new();
        for _ in 0..REPEATS {
            let (mut enc_t, mut dec_t) = (0u128, 0u128);
            for lists in &self.header_lists {
                let mut enc = Encoder::new();
                let t = Instant::now();
                let encoded: Vec<Vec<u8>> =
                    lists.iter().map(|h| enc.encode(black_box(h))).collect();
                enc_t += t.elapsed().as_nanos();
                let mut dec = Decoder::new();
                let t = Instant::now();
                for b in &encoded {
                    black_box(dec.decode(black_box(b)).expect("own block decodes"));
                }
                dec_t += t.elapsed().as_nanos();
            }
            enc_ns.push(enc_t as f64 / blocks as f64);
            dec_ns.push(dec_t as f64 / blocks as f64);
        }
        (median(&enc_ns), median(&dec_ns))
    }

    /// Median ns to encode and decode one KiB of DATA frames.
    pub fn frame_ns_per_kb(&self) -> f64 {
        let kb = self.data_sizes.iter().sum::<usize>() as f64 / 1024.0;
        let mut buf = Vec::with_capacity(DEFAULT_MAX_FRAME_SIZE + 9);
        let mut per_kb = Vec::new();
        for _ in 0..REPEATS {
            let t = Instant::now();
            for &len in &self.data_sizes {
                buf.clear();
                Frame::Data { stream: 1, len, end_stream: false }.encode(&mut buf);
                black_box(Frame::decode(black_box(&buf), DEFAULT_MAX_FRAME_SIZE).expect("decodes"));
            }
            per_kb.push(t.elapsed().as_nanos() as f64 / kb);
        }
        median(&per_kb)
    }

    /// The median main-connection stream count of the workload's pages.
    pub fn median_streams(&self) -> usize {
        let mut c = self.stream_counts.clone();
        c.sort_unstable();
        c[c.len() / 2]
    }

    /// Median ns per scheduler pick with the document finished and the
    /// rest of the median main connection's streams pushed behind it.
    pub fn pick_ns(&self) -> f64 {
        const PICKS: usize = 2_000;
        let n = self.median_streams().max(2) as u32;
        let mut tree = PriorityTree::new();
        tree.insert(1, PrioritySpec { depends_on: 0, weight: 256, exclusive: false });
        let mut snaps = Vec::new();
        for i in 1..n {
            let id = 2 * i;
            tree.insert(id, PrioritySpec { depends_on: 1, weight: 16, exclusive: false });
            snaps.push(StreamSnapshot { id, sendable: 16_384, sent: 0, is_push: true });
        }
        let mut sched = DefaultScheduler::new();
        let mut per_pick = Vec::new();
        for _ in 0..REPEATS {
            let t = Instant::now();
            for _ in 0..PICKS {
                black_box(sched.pick(black_box(&snaps), &tree));
            }
            per_pick.push(t.elapsed().as_nanos() as f64 / PICKS as f64);
        }
        median(&per_pick)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2push_webmodel::{PageBuilder, ResourceSpec};

    #[test]
    fn shapes_follow_the_page_model() {
        let mut b = PageBuilder::new("m", "m.test", 40_000, 4_000);
        b.resource(ResourceSpec::css(0, 15_000, 300, 0.4));
        b.resource(ResourceSpec::image(0, 20_000, 9_000, true, 1.0));
        let page = b.build();
        let s = Shapes::of(&[&page]);
        assert_eq!(s.header_lists[0].len(), 6);
        // 40 000 = 16 384 + 16 384 + 7 232; 15 000; 20 000 = 16 384 + 3 616.
        assert_eq!(s.data_sizes, vec![16_384, 16_384, 7_232, 15_000, 16_384, 3_616]);
        assert_eq!(s.median_streams(), 3);
        let (enc, dec) = s.hpack_ns();
        assert!(enc > 0.0 && dec > 0.0);
        assert!(s.frame_ns_per_kb() > 0.0);
        assert!(s.pick_ns() > 0.0);
    }
}
