//! Seeded inputs and the delivery check.
//!
//! Every workload draws its frames from a corpus built from `--seed`
//! alone: IMIX sizes (40/576/1500 at 7:4:1) with either IPv4-like
//! payloads or payloads dense in flag/escape octets.  Each offered frame
//! carries its sequence number in bytes 4..8, so every delivery can be
//! matched to exactly what was offered and compared byte for byte.

use p5_bench::{imix_sizes, ip_like_datagram, payload_with_flag_density};

/// PPP protocol number for IPv4, the only user protocol offered.
pub const IPV4: u16 = 0x0021;

/// Where the sequence number sits in every payload (after the
/// IPv4-like version/length bytes; IMIX's smallest frame is 40 bytes).
const SEQ_AT: std::ops::Range<usize> = 4..8;

/// Frames per corpus: ~1.4 MB of IMIX payload, larger than the
/// host's L2 so the working set is not cache-resident in one piece.
pub const CORPUS_FRAMES: usize = 4096;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Payloads {
    /// Random IPv4-like datagrams: about 2/256 of the bytes are flag
    /// or escape octets.
    IpLike,
    /// Each byte is 0x7E or 0x7D with probability 1/4 (Figs. 5 and 6).
    FlagDense,
}

/// The frames a workload offers, cycled in order.
pub struct Corpus {
    frames: Vec<Vec<u8>>,
}

/// splitmix64 finaliser of `seed` and index `i`: decorrelated
/// per-item seeds.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Corpus {
    pub fn new(payloads: Payloads, seed: u64, frames: usize) -> Self {
        let sizes = imix_sizes(frames, seed);
        let frames: Vec<Vec<u8>> = sizes
            .iter()
            .enumerate()
            .map(|(i, &len)| {
                let s = mix(seed, i as u64);
                match payloads {
                    Payloads::IpLike => ip_like_datagram(len, s),
                    Payloads::FlagDense => payload_with_flag_density(len, 0.25, s),
                }
            })
            .collect();
        Corpus { frames }
    }

    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// The frame for sequence number `seq`, stamped with it, written
    /// into `buf` (reused across calls).
    pub fn stamped<'a>(&self, seq: u64, buf: &'a mut Vec<u8>) -> &'a [u8] {
        let frame = &self.frames[(seq % self.frames.len() as u64) as usize];
        buf.clear();
        buf.extend_from_slice(frame);
        buf[SEQ_AT].copy_from_slice(&(seq as u32).to_le_bytes());
        buf
    }
}

/// Flow accounting shared by every workload, as the generator and the
/// delivery check see it; `failed = offered - delivered`.  At the end of
/// a run it is held to the system's own [`Counted`] figures (see
/// [`Flow::conserved`]), with `corrupt == 0` required for a correct run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Flow {
    /// Frames handed to the system under test (each sequence number
    /// once, however many times a refused offer was retried).
    pub offered: u64,
    /// Delivered, in order and byte-exact.
    pub delivered: u64,
    pub delivered_bytes: u64,
    /// Refused at admission and never carried.
    pub shed: u64,
    /// Rejected by the device.
    pub rejected: u64,
    /// Admitted but never delivered (a gap in the sequence, or still
    /// missing when the run drained).
    pub lost: u64,
    /// Deliveries that match no offered frame: wrong bytes, wrong
    /// protocol, duplicated or reordered.
    pub corrupt: u64,
}

impl Flow {
    pub fn failed(&self) -> u64 {
        self.offered - self.delivered.min(self.offered)
    }

    /// The conservation law `offered == delivered + shed + rejected +
    /// lost`, with each term held to what the system counted itself over
    /// the same frames: every offered frame was taken or refused, every
    /// refusal is a shed or rejected frame, and every frame the receiver
    /// counted went through the delivery check.  With no corrupt
    /// delivery, `lost` is then the system's `sent - received`.
    pub fn conserved(&self, c: &Counted) -> bool {
        self.offered == self.delivered + self.shed + self.rejected + self.lost
            && self.offered == c.sent + c.refused
            && self.shed + self.rejected == c.refused
            && self.delivered + self.corrupt == c.received
    }

    pub fn add(&mut self, o: &Flow) {
        self.offered += o.offered;
        self.delivered += o.delivered;
        self.delivered_bytes += o.delivered_bytes;
        self.shed += o.shed;
        self.rejected += o.rejected;
        self.lost += o.lost;
        self.corrupt += o.corrupt;
    }
}

/// The system's own frame counts over a run (device OAM registers,
/// transport or fleet counters), independent of the generator's.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counted {
    /// Frames the transmitter took.
    pub sent: u64,
    /// Frames refused for good (shed at ingress or rejected by the
    /// device).
    pub refused: u64,
    /// Frames the receiver delivered.
    pub received: u64,
}

/// Matches an in-order delivery stream, starting at sequence number 0,
/// against the corpus.
#[derive(Default)]
pub struct Checker {
    /// Next sequence number expected.
    next: u64,
}

impl Checker {
    /// Check one delivery; returns its sequence number when it is the
    /// byte-exact copy of an offered frame at or after the expected
    /// position (frames skipped over are counted lost).
    pub fn check(
        &mut self,
        corpus: &Corpus,
        flow: &mut Flow,
        protocol: u16,
        payload: &[u8],
    ) -> Option<u64> {
        let seq = payload
            .get(SEQ_AT)
            .map(|b| u64::from(u32::from_le_bytes([b[0], b[1], b[2], b[3]])));
        // Sequence numbers ride as u32; rebuild the full value near the
        // expected one.
        let seq = seq.map(|s| (self.next & !0xFFFF_FFFF) | s);
        let ok = match seq {
            Some(seq) if protocol == IPV4 && seq >= self.next => {
                let frame = &corpus.frames[(seq % corpus.frames.len() as u64) as usize];
                frame.len() == payload.len()
                    && frame[..SEQ_AT.start] == payload[..SEQ_AT.start]
                    && frame[SEQ_AT.end..] == payload[SEQ_AT.end..]
            }
            _ => false,
        };
        if !ok {
            flow.corrupt += 1;
            return None;
        }
        let seq = seq.expect("checked above");
        flow.lost += seq - self.next;
        self.next = seq + 1;
        flow.delivered += 1;
        flow.delivered_bytes += payload.len() as u64;
        Some(seq)
    }

    /// Everything admitted below `end` that never arrived is lost.
    pub fn finish(&mut self, flow: &mut Flow, end: u64) {
        if end > self.next {
            flow.lost += end - self.next;
            self.next = end;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_a_function_of_the_seed() {
        let a = Corpus::new(Payloads::IpLike, 7, 64);
        let b = Corpus::new(Payloads::IpLike, 7, 64);
        let c = Corpus::new(Payloads::IpLike, 8, 64);
        assert_eq!(a.frames, b.frames);
        assert_ne!(a.frames, c.frames);
        let dense = Corpus::new(Payloads::FlagDense, 7, 256);
        let bytes: Vec<u8> = dense.frames.concat();
        let specials = bytes.iter().filter(|&&b| b == 0x7E || b == 0x7D).count();
        let frac = specials as f64 / bytes.len() as f64;
        assert!((0.2..0.3).contains(&frac), "{frac}");
    }

    #[test]
    fn checker_counts_loss_and_corruption() {
        let corpus = Corpus::new(Payloads::IpLike, 3, 16);
        let mut flow = Flow {
            offered: 5,
            ..Flow::default()
        };
        let mut chk = Checker::default();
        let mut buf = Vec::new();
        assert_eq!(
            chk.check(&corpus, &mut flow, IPV4, corpus.stamped(0, &mut buf)),
            Some(0)
        );
        // Frame 1 is lost; frame 2 arrives.
        let f2 = corpus.stamped(2, &mut buf).to_vec();
        assert_eq!(chk.check(&corpus, &mut flow, IPV4, &f2), Some(2));
        // A replay of frame 2 is a duplicate: corrupt.
        assert_eq!(chk.check(&corpus, &mut flow, IPV4, &f2), None);
        // One flipped byte: corrupt.
        let mut f3 = corpus.stamped(3, &mut buf).to_vec();
        f3[20] ^= 1;
        assert_eq!(chk.check(&corpus, &mut flow, IPV4, &f3), None);
        chk.finish(&mut flow, 5);
        assert_eq!((flow.delivered, flow.lost, flow.corrupt), (2, 3, 2));
        assert_eq!(flow.failed(), 3);
        // The receiver counted four frames, all of which were checked.
        let counted = Counted {
            sent: 5,
            refused: 0,
            received: 4,
        };
        assert!(flow.conserved(&counted));
        // A frame the receiver counted but the check never saw, or an
        // offer the transmitter never took, breaks the law.
        for c in [
            Counted {
                received: 5,
                ..counted
            },
            Counted { sent: 4, ..counted },
            Counted {
                refused: 1,
                ..counted
            },
        ] {
            assert!(!flow.conserved(&c), "{c:?}");
        }
    }
}
