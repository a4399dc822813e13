//! Seeded workload inputs, generated as dot-bracket text.
//!
//! The shapes follow the repository's structure generators (the
//! paper's contrived worst case, rRNA-like stem trees, sparse hairpin
//! fields), but the code and its random source live here: a change to
//! the program's generators cannot change a workload. The program only
//! ever sees the text.

/// SplitMix64: a small, fixed, well-known generator, so an input is a
/// pure function of its seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (((self.next_u64() >> 32) * n as u64) >> 32) as usize
    }
}

/// Derives an independent stream seed from the workload seed.
pub fn stream(seed: u64, stream: u64) -> u64 {
    Rng::new(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

/// `arcs` fully nested arcs over `2 * arcs` positions: the paper's
/// contrived worst case.
pub fn worst_case_nested(arcs: usize) -> String {
    "(".repeat(arcs) + &")".repeat(arcs)
}

/// `hairpins` hairpins (stems of `stem` arcs around `loop_len` unpaired
/// positions) scattered over `len` positions, the leftover length spread
/// as random unpaired spacers.
pub fn sparse_hairpin_field(
    len: usize,
    hairpins: usize,
    stem: usize,
    loop_len: usize,
    seed: u64,
) -> String {
    let hairpin_len = 2 * stem + loop_len;
    let used = hairpins * hairpin_len;
    assert!(len >= used, "{len} nt cannot hold {hairpins} hairpins");
    let mut rng = Rng::new(seed);
    let mut spacers = vec![0usize; hairpins + 1];
    for _ in 0..len - used {
        spacers[rng.below(hairpins + 1)] += 1;
    }
    let hairpin = "(".repeat(stem) + &".".repeat(loop_len) + &")".repeat(stem);
    let mut out = String::with_capacity(len);
    for (h, &gap) in spacers.iter().enumerate() {
        out.push_str(&".".repeat(gap));
        if h < hairpins {
            out.push_str(&hairpin);
        }
    }
    out
}

/// An rRNA-like structure of exactly `len` positions and `arcs` arcs:
/// stems of geometric length (mean `mean_stem`) arranged in a random
/// multiloop forest (a stem nests under a random earlier stem with
/// probability `nest_bias`), unpaired positions spread over the loops
/// with at least 3 per hairpin loop while they last.
pub fn rrna_like(len: usize, arcs: usize, mean_stem: usize, nest_bias: f64, seed: u64) -> String {
    assert!(len >= 2 * arcs, "{len} nt cannot hold {arcs} arcs");
    let mut rng = Rng::new(seed);
    let mut stems = Vec::new();
    let mut remaining = arcs;
    while remaining > 0 {
        let mut s = 1;
        while s < remaining && rng.unit() > 1.0 / mean_stem as f64 {
            s += 1;
        }
        stems.push(s);
        remaining -= s;
    }
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); stems.len()];
    let mut roots = Vec::new();
    for i in 0..stems.len() {
        if i > 0 && rng.unit() < nest_bias {
            children[rng.below(i)].push(i);
        } else {
            roots.push(i);
        }
    }

    // Lay the forest out as pieces: stem opens/closes and gap slots.
    enum Piece {
        Open(usize),
        Close(usize),
        Gap(usize),
    }
    let mut pieces = Vec::new();
    let mut hairpin_slots = Vec::new();
    let mut slots = 0;
    // Explicit stack instead of recursion: (stem list, next index).
    let mut stack: Vec<(&[usize], usize)> = vec![(&roots, 0)];
    pieces.push(Piece::Gap(slots));
    slots += 1;
    while let Some((level, i)) = stack.pop() {
        if i > 0 {
            pieces.push(Piece::Close(stems[level[i - 1]]));
            pieces.push(Piece::Gap(slots));
            slots += 1;
        }
        if i == level.len() {
            continue;
        }
        let s = level[i];
        stack.push((level, i + 1));
        pieces.push(Piece::Open(stems[s]));
        pieces.push(Piece::Gap(slots));
        if children[s].is_empty() {
            hairpin_slots.push(slots);
        } else {
            stack.push((&children[s], 0));
        }
        slots += 1;
    }

    let mut sizes = vec![0usize; slots];
    let mut budget = len - 2 * arcs;
    for &h in &hairpin_slots {
        let want = budget.min(3);
        sizes[h] = want;
        budget -= want;
    }
    for _ in 0..budget {
        sizes[rng.below(slots)] += 1;
    }
    let mut out = String::with_capacity(len);
    for piece in &pieces {
        match *piece {
            Piece::Open(d) => out.push_str(&"(".repeat(d)),
            Piece::Close(d) => out.push_str(&")".repeat(d)),
            Piece::Gap(slot) => out.push_str(&".".repeat(sizes[slot])),
        }
    }
    out
}

/// Nesting work of a structure: the sum over arcs of the number of
/// arcs nested under each. A pair's stage-one cells are the product of
/// the two structures' nesting work.
pub fn nesting_work(db: &str) -> u64 {
    let (mut open, mut closed, mut work) = (Vec::new(), 0u64, 0u64);
    for c in db.bytes() {
        match c {
            b'(' => open.push(closed),
            b')' => {
                work += closed - open.pop().expect("balanced input");
                closed += 1;
            }
            _ => {}
        }
    }
    work
}

/// The first [`rrna_like`] draw of the seed's candidate stream whose
/// nesting work lies within 1% of `work`. Unconditioned draws of the
/// 2,900-nt, 800-arc shape range over more than 2× in work, which
/// would make the seed, not the program, set a solve's time.
pub fn rrna_with_work(len: usize, arcs: usize, work: u64, seed: u64) -> String {
    (0..)
        .map(|k| rrna_like(len, arcs, 7, 0.55, stream(seed, k)))
        .find(|db| nesting_work(db).abs_diff(work) * 100 <= work)
        .expect("the candidate stream is unbounded")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arcs(db: &str) -> usize {
        db.bytes().filter(|&c| c == b'(').count()
    }

    #[test]
    fn shapes_have_the_requested_make_up() {
        let w = worst_case_nested(200);
        assert_eq!((w.len(), arcs(&w)), (400, 200));
        let f = sparse_hairpin_field(12_000, 600, 3, 4, 5);
        assert_eq!((f.len(), arcs(&f)), (12_000, 1800));
        let r = rrna_like(2900, 800, 7, 0.55, 9);
        assert_eq!((r.len(), arcs(&r)), (2900, 800));
        assert_eq!(r, rrna_like(2900, 800, 7, 0.55, 9), "same seed, same text");
        assert_eq!(nesting_work(&w), 199 * 200 / 2);
        assert_eq!(nesting_work(&f), 600 * 3);
        let c = rrna_with_work(2900, 800, 10_400, 4);
        assert_eq!((c.len(), arcs(&c)), (2900, 800));
        assert!(nesting_work(&c).abs_diff(10_400) <= 104);
    }
}
