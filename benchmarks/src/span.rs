//! Spans of the traced run, recorded by the benchmark around its calls into
//! each layer (spans inside the program are a later change), kept in memory
//! and written once when the run ends.

use std::fmt::Write as _;
use std::path::Path;

/// One timed interval at a layer boundary. Times are seconds on the traced
/// run's clock; spans of one operation share `op`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub op: u64,
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

#[derive(Debug, Default)]
pub struct SpanLog {
    spans: Vec<Span>,
}

impl SpanLog {
    /// Records a span the benchmark timed as it happened.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<u32>,
        start: f64,
        end: f64,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start,
            end,
        });
        id
    }

    /// Records a *replayed* rung of the ladder: the same operation run again
    /// one layer further down, single caller, taking `duration`. The program
    /// gives the benchmark no hook inside a query, so the lower rung cannot
    /// be timed while the upper one runs; it is placed at its parent's start
    /// so the tree nests as the real call would, and sibling replays (the
    /// shards of one query) overlap as parallel shards do.
    pub fn record_replay(&mut self, name: &'static str, parent: u32, duration: f64) -> u32 {
        let (op, start) = {
            let p = &self.spans[parent as usize];
            (p.op, p.start)
        };
        self.record(name, op, Some(parent), start, start + duration)
    }

    /// Durations of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .collect()
    }

    /// Self times of every span called `name`: the span's duration minus the
    /// part of it its direct children cover. Children are clipped to the
    /// parent and their union is taken, so overlapping children are never
    /// counted twice and a child that outlasts its parent (a replay slower
    /// than the original) cannot make a self time negative.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent as usize].push((span.start, span.end));
            }
        }
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration() - covered(&mut children[s.id as usize], s.start, s.end))
            .collect()
    }

    /// Writes every span as one tab-separated line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut text = String::from("id\tparent\top\tname\tstart_s\tend_s\n");
        for s in &self.spans {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{}\t{parent}\t{}\t{}\t{:.9}\t{:.9}",
                s.id, s.op, s.name, s.start, s.end
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

/// Length of the union of `intervals` inside `[lo, hi]`.
fn covered(intervals: &mut [(f64, f64)], lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("span times are never NaN"));
    let mut total = 0.0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn self_time_is_duration_minus_the_union_of_children() {
        let mut log = SpanLog::default();
        let root = log.record("wire", 1, None, 10.0, 20.0);
        // Two overlapping children cover [11, 16]: 5 s, not 3 + 4.
        log.record("shard", 1, Some(root), 11.0, 14.0);
        log.record("shard", 1, Some(root), 12.0, 16.0);
        // A disjoint child covers 1 s more.
        log.record("merge", 1, Some(root), 18.0, 19.0);
        assert!(close(log.self_times("wire")[0], 10.0 - 6.0));
        // Leaves keep their whole duration.
        assert_eq!(log.self_times("shard"), vec![3.0, 4.0]);
        assert_eq!(log.durations("shard"), vec![3.0, 4.0]);
        assert!(log.self_times("absent").is_empty());
    }

    #[test]
    fn children_are_clipped_to_their_parent_and_grandchildren_ignored() {
        let mut log = SpanLog::default();
        let root = log.record("serve", 7, None, 0.0, 4.0);
        // Starts before and ends after the parent: covers all of it, no more.
        let child = log.record("engine", 7, Some(root), -1.0, 9.0);
        // A grandchild is its parent's business only.
        log.record("kernel", 7, Some(child), 0.0, 2.0);
        assert!(close(log.self_times("serve")[0], 0.0));
        assert!(close(log.self_times("engine")[0], 10.0 - 2.0));
    }

    #[test]
    fn replays_nest_at_the_parents_start_and_share_its_operation() {
        let mut log = SpanLog::default();
        let wire = log.record("wire", 42, None, 5.0, 5.010);
        let serve = log.record_replay("serve", wire, 0.008);
        let a = log.record_replay("engine", serve, 0.003);
        log.record_replay("engine", serve, 0.005);
        log.record_replay("kernel", a, 0.001);
        assert!(close(log.self_times("wire")[0], 0.002));
        // The two engine replays overlap from the start: the longer one is
        // what the query waited for.
        assert!(close(log.self_times("serve")[0], 0.003));
        assert!(close(log.self_times("engine")[0], 0.002));
        assert_eq!(log.spans.len(), 5);
        assert!(log.spans.iter().all(|s| s.op == 42));
        // A replay slower than what it replays leaves a zero, not a negative.
        let fast = log.record("wire", 43, None, 6.0, 6.001);
        log.record_replay("serve", fast, 0.002);
        assert!(close(log.self_times("wire")[1], 0.0));
    }

    #[test]
    fn spans_are_written_one_line_each() {
        let tmp = crate::host::TempDir::create("unit-spans").unwrap();
        let mut log = SpanLog::default();
        let root = log.record("wire", 3, None, 0.5, 1.5);
        log.record_replay("serve", root, 0.25);
        let path = tmp.path().join("out").join("spans.tsv");
        log.write(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[1], "0\t-\t3\twire\t0.500000000\t1.500000000");
        assert_eq!(lines[2], "1\t0\t3\tserve\t0.500000000\t0.750000000");
    }
}
