//! Fuzzing `FaultPlan::parse`, the one parser of chaos schedules read from
//! text (a logged plan is replayed by parsing it back).
//!
//! Three properties, over arbitrary byte soup and over files built line by
//! line from the real keys with some values mangled:
//!
//! * parsing never panics (a panic fails the case);
//! * an `Err` names the line at fault: that line fails on its own, and every
//!   line before it parses;
//! * an `Ok(plan)` round-trips: `FaultPlan::parse(&plan.to_text()) == Ok(plan)`.

use proptest::prelude::*;
use proptest::{TestCaseError, TestRng};
use sccg::FaultPlan;

/// Checks the outcome of parsing `text` against the three properties.
fn check_outcome(text: &str) -> Result<(), TestCaseError> {
    match FaultPlan::parse(text) {
        Ok(plan) => {
            prop_assert_eq!(FaultPlan::parse(&plan.to_text()), Ok(plan));
        }
        Err(message) => {
            let number = message
                .strip_prefix("line ")
                .and_then(|rest| rest.split_once(':'))
                .and_then(|(number, _)| number.parse::<usize>().ok());
            prop_assert!(number.is_some(), "error names no line: {message:?}");
            let number = number.unwrap();
            let lines: Vec<&str> = text.lines().collect();
            prop_assert!(
                (1..=lines.len()).contains(&number),
                "{message:?} names a line outside the {} lines of {text:?}",
                lines.len()
            );
            prop_assert!(
                FaultPlan::parse(lines[number - 1]).is_err(),
                "{message:?}: line {number} {:?} parses on its own",
                lines[number - 1]
            );
            prop_assert!(
                FaultPlan::parse(&lines[..number - 1].join("\n")).is_ok(),
                "{message:?}: a line before line {number} is bad too"
            );
        }
    }
    Ok(())
}

/// Fragments that make the byte soup reach every branch of the parser;
/// the whole lines let some soups parse.
const FRAGMENTS: &[&str] = &[
    "seed=42\n",
    "fail-read=7x0\n",
    "slow-read=0@42\n",
    "corrupt-tile=7\n",
    "kill-engine=1x1\n",
    "# note\n",
    "seed",
    "fail-read",
    "slow-read",
    "corrupt-tile",
    "fail-write-op",
    "kill-engine",
    "reset-connection",
    "=",
    "x",
    "@",
    "#",
    "\n",
    "\r\n",
    " ",
    "\t",
    "-",
    "+",
    "0",
    "7",
    "42",
    "18446744073709551615",
    "18446744073709551616",
    "é",
    "\u{0}",
];

/// The first `WHOLE_LINES` fragments are complete lines.
const WHOLE_LINES: u64 = 6;

/// Arbitrary text: lossily decoded random bytes, a soup of fragments, or
/// whole lines with now and then a line of soup.
struct AnyText;

impl Strategy for AnyText {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let len = rng.below(64) as usize;
        let fragment = |rng: &mut TestRng| FRAGMENTS[rng.below(FRAGMENTS.len() as u64) as usize];
        match rng.below(3) {
            0 => {
                let bytes: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
                String::from_utf8_lossy(&bytes).into_owned()
            }
            1 => (0..len).map(|_| fragment(rng)).collect(),
            _ => (0..len / 4)
                .map(|_| match rng.below(8) {
                    0 => (0..rng.below(6)).map(|_| fragment(rng)).collect::<String>() + "\n",
                    _ => FRAGMENTS[rng.below(WHOLE_LINES) as usize].to_string(),
                })
                .collect(),
        }
    }
}

/// One line of a structured plan file.
#[derive(Debug, Clone)]
enum Line {
    /// A valid entry, with the plan it adds to.
    Valid(String, fn(FaultPlan, u64, u64) -> FaultPlan, u64, u64),
    /// A blank line or a comment.
    Ignored(String),
    /// A line the parser must reject.
    Bad(String),
}

/// The keys and how a valid entry of each extends the expected plan. The
/// `char` is the pair separator, `None` for a single-number value.
type Key = (
    &'static str,
    Option<char>,
    fn(FaultPlan, u64, u64) -> FaultPlan,
);

const KEYS: &[Key] = &[
    ("seed", None, |mut plan, seed, _| {
        plan.seed = seed;
        plan
    }),
    ("fail-read", Some('x'), |plan, a, b| plan.fail_read(a, b)),
    ("slow-read", Some('@'), |plan, a, b| plan.slow_read(a, b)),
    ("corrupt-tile", None, |plan, a, _| plan.corrupt_tile(a)),
    ("fail-write-op", None, |plan, a, _| plan.fail_write_op(a)),
    ("kill-engine", Some('x'), |plan, a, b| {
        plan.kill_engine(a, b)
    }),
    ("reset-connection", Some('@'), |plan, a, b| {
        plan.reset_connection(a, b)
    }),
];

/// Values that are not a `u64`.
const NOT_A_NUMBER: &[&str] = &[
    "",
    "abc",
    "-1",
    "1.5",
    "18446744073709551616",
    "0x10",
    "1_000",
    "1 2",
    "١",
];

/// A number biased toward the edges of `u64`.
fn number(rng: &mut TestRng) -> u64 {
    match rng.below(4) {
        0 => 0,
        1 => u64::MAX,
        2 => rng.next_u64(),
        _ => rng.below(10),
    }
}

/// Lines built from the real keys: mostly valid, some blank or comments,
/// and about one in eight mangled so the parser must reject it.
struct PlanLines;

impl Strategy for PlanLines {
    type Value = Vec<Line>;
    fn generate(&self, rng: &mut TestRng) -> Vec<Line> {
        let count = rng.below(12) as usize;
        (0..count).map(|_| plan_line(rng)).collect()
    }
}

fn plan_line(rng: &mut TestRng) -> Line {
    let (key, separator, apply) = KEYS[rng.below(KEYS.len() as u64) as usize];
    let (a, b) = (number(rng), number(rng));
    let pad = |rng: &mut TestRng| [" ", "", "\t", ""][rng.below(4) as usize];
    match rng.below(16) {
        0 => Line::Ignored(["", "   ", "# a comment", "  #seed=x"][rng.below(4) as usize].into()),
        1 | 2 => {
            let junk = NOT_A_NUMBER[rng.below(NOT_A_NUMBER.len() as u64) as usize];
            let value = match (separator, rng.below(5)) {
                // A pair with its separator missing or swapped.
                (Some(_), 0) => format!("{a}{b}"),
                (Some('x'), 1) => format!("{a}@{b}"),
                (Some(_), 1) => format!("{a}x{b}"),
                // A pair with one side (or a third part) not a number.
                (Some(sep), 2) => format!("{junk}{sep}{b}"),
                (Some(sep), 3) => format!("{a}{sep}{b}{sep}{a}"),
                (Some(sep), _) => format!("{a}{sep}{junk}"),
                // A single number given as a pair or as junk.
                (None, 0) => format!("{a}x{b}"),
                (None, 1) => format!("{a}={b}"),
                (None, _) => junk.to_string(),
            };
            let line = match rng.below(8) {
                // A misspelt key, or no '=' at all.
                0 => format!("{}={value}", key.to_uppercase()),
                1 => format!("{key} {a}"),
                _ => format!("{key}={value}"),
            };
            Line::Bad(line)
        }
        _ => {
            let value = match separator {
                Some(sep) => format!("{a}{sep}{b}"),
                None => a.to_string(),
            };
            Line::Valid(
                format!("{}{key}={value}{}", pad(rng), pad(rng)),
                apply,
                a,
                b,
            )
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    #[test]
    fn arbitrary_text_parses_or_names_its_bad_line(text in AnyText) {
        check_outcome(&text)?;
    }

    #[test]
    fn mangled_plans_fail_at_their_first_bad_line(lines in PlanLines) {
        let text: String = lines
            .iter()
            .map(|line| match line {
                Line::Valid(text, ..) | Line::Ignored(text) | Line::Bad(text) => {
                    format!("{text}\n")
                }
            })
            .collect();
        let first_bad = lines.iter().position(|line| matches!(line, Line::Bad(_)));
        match (FaultPlan::parse(&text), first_bad) {
            (Ok(plan), None) => {
                let expected = lines.iter().fold(FaultPlan::default(), |plan, line| match line {
                    Line::Valid(_, apply, a, b) => apply(plan, *a, *b),
                    _ => plan,
                });
                prop_assert_eq!(&plan, &expected);
            }
            (Err(message), Some(index)) => {
                let prefix = format!("line {}: ", index + 1);
                prop_assert!(
                    message.starts_with(&prefix),
                    "{message:?} should start with {prefix:?} in {text:?}"
                );
            }
            (outcome, first_bad) => {
                return Err(TestCaseError(format!(
                    "{outcome:?} with first bad line {first_bad:?} in {text:?}"
                )));
            }
        }
        check_outcome(&text)?;
    }
}
