//! Arithmetic-operation accounting for Table IV.
//!
//! Table IV compares the arithmetic operations a user must *write* in the
//! original Triton kernels against the LEGO versions: [`count_source_ops`]
//! counts `+ - * / // %` operators in marked index-computation source
//! lines (the colored boxes of Fig. 1).

/// Counts arithmetic operators (`+ - * / %`, with `//` counted once) in a
/// source snippet, ignoring comments, keyword arguments (`axis=0`),
/// comparison (`==`, `<=`, …) and unary minus on literals.
///
/// This mirrors how the paper counts "arithmetic operations in
/// user-defined code": operators the programmer must type in the
/// index-computation lines.
pub fn count_source_ops(src: &str) -> usize {
    let mut count = 0usize;
    for raw_line in src.lines() {
        let line = match raw_line.find('#') {
            Some(p) => &raw_line[..p],
            None => raw_line,
        };
        let bytes = line.as_bytes();
        let mut i = 0usize;
        while i < bytes.len() {
            let c = bytes[i] as char;
            match c {
                '+' | '%' => {
                    count += 1;
                    i += 1;
                }
                '*' => {
                    // `**` (power) counts once.
                    if i + 1 < bytes.len() && bytes[i + 1] == b'*' {
                        i += 2;
                    } else {
                        i += 1;
                    }
                    count += 1;
                }
                '/' => {
                    // `//` (floor div) counts once.
                    if i + 1 < bytes.len() && bytes[i + 1] == b'/' {
                        i += 2;
                    } else {
                        i += 1;
                    }
                    count += 1;
                }
                '-' => {
                    // Skip `->` and unary minus after `(`, `,`, `=`, or an
                    // operator.
                    if i + 1 < bytes.len() && bytes[i + 1] == b'>' {
                        i += 2;
                        continue;
                    }
                    let prev = line[..i].trim_end().chars().last();
                    let unary = matches!(
                        prev,
                        None | Some('(' | ',' | '=' | '+' | '-' | '*' | '/' | '%' | '[' | ':')
                    );
                    if !unary {
                        count += 1;
                    }
                    i += 1;
                }
                '=' => {
                    // Skip ==, <=, >=, != handled by skipping the '='.
                    i += 1;
                }
                _ => i += 1,
            }
        }
    }
    count
}

/// A Table IV row: operator name and the two user-visible op counts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpCountRow {
    /// Benchmark / operator name.
    pub operator: String,
    /// Ops in the original (hand-written Triton) user code.
    pub original: usize,
    /// Ops in the LEGO user code (layout spec + template).
    pub optimized: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_binary_operators() {
        assert_eq!(count_source_ops("a = b*c + d % e"), 3);
    }

    #[test]
    fn floor_div_counts_once() {
        assert_eq!(count_source_ops("q = x // y"), 1);
        assert_eq!(count_source_ops("q = x / y"), 1);
    }

    #[test]
    fn power_counts_once() {
        assert_eq!(count_source_ops("q = x ** 2"), 1);
    }

    #[test]
    fn unary_minus_free() {
        assert_eq!(count_source_ops("q = -x"), 0);
        assert_eq!(count_source_ops("q = f(-x, -1)"), 0);
        assert_eq!(count_source_ops("q = a - x"), 1);
    }

    #[test]
    fn comments_and_arrows_ignored() {
        assert_eq!(count_source_ops("def f() -> int:  # a + b"), 0);
    }

    #[test]
    fn fig1_triton_pid_lines_count() {
        // The green box of Fig. 1 (thread-block layout computation).
        let src = "\
num_pid_in_group = GM * nt_n
group_id = pid // num_pid_in_group
first_pid_m = group_id * GM
pid_m = first_pid_m + ((pid % num_pid_in_group) % GM)
pid_n = (pid % num_pid_in_group) // GM";
        assert_eq!(count_source_ops(src), 8);
    }
}
