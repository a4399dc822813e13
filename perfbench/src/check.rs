//! Correctness checks written independently of the program: a
//! dot-bracket reader, a direct implementation of the paper's MCOS
//! recurrence over compressed slices (Fig. 2), and a validity checker
//! for returned arc mappings. None of it calls the program's solvers.

/// Arcs `(left, right)` of a dot-bracket string, ordered by right
/// endpoint — the order a left-to-right scan closes them in, and the
/// arc numbering the program's mappings use.
pub fn arcs_of(db: &str) -> Vec<(u32, u32)> {
    let mut open = Vec::new();
    let mut arcs = Vec::new();
    for (pos, c) in db.bytes().enumerate() {
        match c {
            b'(' => open.push(pos as u32),
            b')' => arcs.push((open.pop().expect("balanced input"), pos as u32)),
            _ => {}
        }
    }
    assert!(open.is_empty(), "balanced input");
    arcs
}

/// For each arc, the number of arcs that close before it opens. The
/// arcs nested under arc `k` are exactly the indices `before[k]..k`.
fn closed_before(arcs: &[(u32, u32)]) -> Vec<usize> {
    arcs.iter()
        .map(|&(left, _)| arcs.partition_point(|&(_, r)| r < left))
        .collect()
}

/// The MCOS score of two structures: the most arc pairs that can be
/// matched while keeping order and nesting.
///
/// `F(w1, w2)` over two arc windows is tabulated on the grid of window
/// prefixes: cell `(p, q)` is the best matching of the first `p` arcs
/// of `w1` with the first `q` of `w2`. It either drops the last arc of
/// one side, or matches the two last arcs `(g1, g2)`: one, plus the
/// best matching of the arcs closing before both open, plus the best
/// matching of the arcs nested under both — the child slice `M[g1][g2]`,
/// already known because nested arcs close earlier.
pub fn mcos_score(db1: &str, db2: &str) -> u32 {
    let (a1, a2) = (arcs_of(db1), arcs_of(db2));
    let (b1, b2) = (closed_before(&a1), closed_before(&a2));
    let n2 = a2.len();
    let mut m = vec![0u32; a1.len() * n2];
    let mut grid = Vec::new();
    let mut slice = |lo1: usize, hi1: usize, lo2: usize, hi2: usize, m: &[u32]| -> u32 {
        let w = hi2 - lo2 + 1;
        grid.clear();
        grid.resize((hi1 - lo1 + 1) * w, 0u32);
        for p in 1..=hi1 - lo1 {
            let g1 = lo1 + p - 1;
            for q in 1..=hi2 - lo2 {
                let g2 = lo2 + q - 1;
                let before = grid[(b1[g1] - lo1) * w + (b2[g2] - lo2)];
                let matched = 1 + before + m[g1 * n2 + g2];
                grid[p * w + q] = matched.max(grid[(p - 1) * w + q]).max(grid[p * w + q - 1]);
            }
        }
        grid[grid.len() - 1]
    };
    for k1 in 0..a1.len() {
        for k2 in 0..n2 {
            let v = slice(b1[k1], k1, b2[k2], k2, &m);
            m[k1 * n2 + k2] = v;
        }
    }
    slice(0, a1.len(), 0, n2, &m)
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Relation {
    Before,
    After,
    Inside,
    Encloses,
}

fn relation((l, r): (u32, u32), (l2, r2): (u32, u32)) -> Relation {
    if r < l2 {
        Relation::Before
    } else if r2 < l {
        Relation::After
    } else if l2 < l {
        Relation::Inside
    } else {
        Relation::Encloses
    }
}

/// Checks that `pairs` is a common ordered substructure of the two
/// structures with `score` arcs: every pair names an arc of each, no
/// arc is used twice, and every two pairs stand in the same relation
/// (before, after, inside, enclosing) on both sides.
pub fn check_mapping(
    arcs1: &[(u32, u32)],
    arcs2: &[(u32, u32)],
    pairs: &[(u32, u32)],
    score: u32,
) -> Result<(), String> {
    if pairs.len() != score as usize {
        return Err(format!("{} pairs for score {score}", pairs.len()));
    }
    let mut used = (vec![false; arcs1.len()], vec![false; arcs2.len()]);
    for &(x, y) in pairs {
        let (x, y) = (x as usize, y as usize);
        if x >= arcs1.len() || y >= arcs2.len() {
            return Err(format!("pair ({x}, {y}) names no arc"));
        }
        if std::mem::replace(&mut used.0[x], true) || std::mem::replace(&mut used.1[y], true) {
            return Err(format!("pair ({x}, {y}) reuses an arc"));
        }
    }
    for (i, &(x, y)) in pairs.iter().enumerate() {
        for &(x2, y2) in &pairs[i + 1..] {
            let r1 = relation(arcs1[x as usize], arcs1[x2 as usize]);
            let r2 = relation(arcs2[y as usize], arcs2[y2 as usize]);
            if r1 != r2 {
                return Err(format!(
                    "pairs ({x}, {y}) and ({x2}, {y2}): {r1:?} vs {r2:?}"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recurrence_on_small_cases() {
        assert_eq!(mcos_score("((..))", "((..))"), 2);
        assert_eq!(mcos_score("(.)(.)", "((.))"), 1);
        assert_eq!(mcos_score("(())()", "(()())"), 2);
        assert_eq!(mcos_score("....", "(())"), 0);
        let w = crate::gen::worst_case_nested(30);
        assert_eq!(mcos_score(&w, &w), 30);
    }

    #[test]
    fn checker_rejects_broken_mappings() {
        let a = arcs_of("(())()");
        assert!(check_mapping(&a, &a, &[(0, 0), (1, 1), (2, 2)], 3).is_ok());
        assert!(
            check_mapping(&a, &a, &[(0, 0), (1, 1)], 3).is_err(),
            "short"
        );
        assert!(
            check_mapping(&a, &a, &[(0, 0), (0, 1)], 2).is_err(),
            "reuse"
        );
        assert!(
            check_mapping(&a, &a, &[(0, 1), (1, 0)], 2).is_err(),
            "nesting"
        );
        assert!(
            check_mapping(&a, &a, &[(1, 2), (2, 1)], 2).is_err(),
            "order"
        );
        assert!(check_mapping(&a, &a, &[(3, 0)], 1).is_err(), "range");
    }
}
