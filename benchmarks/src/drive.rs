//! Starting the program under test (store, service, wire server, clients)
//! and driving it closed-loop from the benchmark's client threads. Shared by
//! the untraced workloads and the traced replay.

use crate::inputs::{client_rng, Inputs, Kind, SlidePair, SplitMix64};
use crate::stats::Completion;
use sccg_net::{ClientConfig, NetConfig, WireClient, WireRequestSpec, WireServer};
use sccg_serve::{ComparisonService, ServiceConfig, SlideId, SlideStore};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The running program under test. Fields drop in declaration order:
/// clients disconnect, the server drains, then the service stops.
pub struct Stack {
    pub clients: Vec<WireClient>,
    /// Held for its lifetime: dropping it drains and joins the server.
    _server: WireServer,
    pub service: Arc<ComparisonService>,
    /// The slide pair registered at set-up (`Serve` queries it; `Ingest`
    /// registers it only to take the first-registration costs in set-up).
    pub slides: (SlideId, SlideId),
}

fn register_pair(store: &SlideStore, name: &str, pair: &SlidePair) -> (SlideId, SlideId) {
    let register = |suffix: &str, texts: &[String]| {
        let name = format!("{name}-{suffix}");
        match store.residency_bound() {
            // Streaming registration consumes its texts; the clones are made
            // one tile at a time as the store pulls them.
            Some(_) => store.register_slide_streaming(name, texts.iter().cloned()),
            None => store.register_slide_text(name, texts),
        }
        .expect("generated polygon files register")
    };
    (
        register("a", &pair.first_texts),
        register("b", &pair.second_texts),
    )
}

/// Sets the program up for a workload: slide registration (parse, and spill
/// to `spill_dir` where the workload's store is disk-backed), service and
/// wire-server start, client connects. Everything here is `setup_s`.
///
/// All configs are the crates' defaults, so a changed default shows — except
/// the response cache (`cache_capacity`), off for every end-to-end workload:
/// repeated windows must be recomputed, not replayed.
pub fn start_stack(
    inputs: &Inputs,
    spill_dir: &Path,
    clients: usize,
    cache_capacity: usize,
) -> Stack {
    let store = match inputs.workload.residency_bound {
        Some(bound) => SlideStore::with_spill(spill_dir, bound).expect("spill directory"),
        None => SlideStore::new(),
    };
    let slides = register_pair(&store, "base", &inputs.pairs[0]);
    let service = Arc::new(
        ComparisonService::new(
            store,
            ServiceConfig::default().with_cache_capacity(cache_capacity),
        )
        .expect("default service starts"),
    );
    let server = WireServer::start(Arc::clone(&service), "127.0.0.1:0", NetConfig::default())
        .expect("loopback server binds");
    let clients = (0..clients)
        .map(|_| {
            WireClient::connect(server.local_addr(), ClientConfig::default())
                .expect("client connects over loopback")
        })
        .collect();
    Stack {
        clients,
        _server: server,
        service,
        slides,
    }
}

/// One operation as a client saw it; times are seconds on the run's clock.
#[derive(Debug, Clone, Copy)]
pub struct OpRecord {
    pub start: f64,
    /// When the operation's wire query was sent: `start` unless the
    /// operation registers slides first.
    pub query_start: f64,
    pub end: f64,
    /// When the query's first tile frame arrived.
    pub first_tile: Option<f64>,
    pub tiles: usize,
    /// The complete answer arrived and is bit-identical to the oracle.
    pub ok: bool,
}

impl OpRecord {
    pub fn completion(&self) -> Completion {
        Completion {
            start: self.start,
            end: self.end,
            tiles: self.tiles as f64,
        }
    }

    pub fn latency_ms(&self) -> f64 {
        (self.end - self.start) * 1e3
    }
}

/// When a client stops issuing operations.
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    /// At this time on the run's clock.
    Until(f64),
    /// After this many operations — fixed work, so what accumulates with the
    /// work (slides, open files, resident tiles) does not depend on speed.
    Operations(usize),
}

/// One streaming wire query over `tiles` of a slide pair, verified against
/// the oracle. Errors and timeouts are failed operations, not panics.
pub fn query_window(
    client: &mut WireClient,
    clock: Instant,
    slides: (SlideId, SlideId),
    pair: &SlidePair,
    tiles: std::ops::Range<usize>,
) -> (bool, Option<f64>) {
    let mut spec = WireRequestSpec::new(slides.0, slides.1);
    spec.tiles = Some(tiles.clone().map(|t| t as u64).collect());
    let mut first_tile = None;
    let outcome = client.query_streaming(&spec, |_, _| {
        first_tile.get_or_insert_with(|| clock.elapsed().as_secs_f64());
    });
    let ok = outcome.is_ok_and(|o| {
        !o.response.cache_hit && pair.answer_matches(tiles, &o.response.tiles, &o.response.summary)
    });
    (ok, first_tile)
}

/// What a client thread needs to issue the workload's operations.
struct Driver<'a> {
    inputs: &'a Inputs,
    slides: (SlideId, SlideId),
    store: &'a SlideStore,
    clock: Instant,
}

impl Driver<'_> {
    /// The workload's operation for client `client_index` at its `index`-th
    /// turn.
    fn operate(
        &self,
        client_index: usize,
        index: usize,
        client: &mut WireClient,
        rng: &mut SplitMix64,
    ) -> OpRecord {
        let inputs = self.inputs;
        let start = self.clock.elapsed().as_secs_f64();
        let (slides, pair, tiles) = match inputs.workload.kind {
            Kind::Serve => {
                let window = inputs.window_tiles(rng.below(inputs.window_count()));
                (self.slides, &inputs.pairs[0], window)
            }
            Kind::Ingest => {
                // Text in, verified answer out: register a fresh pair, then
                // one whole-slide query over it, cold.
                let pair = &inputs.pairs[(client_index + index) % inputs.pairs.len()];
                let name = format!("c{client_index}-{index}");
                (
                    register_pair(self.store, &name, pair),
                    pair,
                    0..pair.tiles.len(),
                )
            }
            Kind::Batch => unreachable!("batch_text has no wire clients"),
        };
        let count = tiles.len();
        let query_start = self.clock.elapsed().as_secs_f64();
        let (ok, first_tile) = query_window(client, self.clock, slides, pair, tiles);
        OpRecord {
            start,
            query_start,
            end: self.clock.elapsed().as_secs_f64(),
            first_tile,
            tiles: count,
            ok,
        }
    }
}

/// Drives every client of `stack` closed-loop — the next operation is sent
/// only when the previous one's answer is complete and checked — until
/// `limit`, one thread per client. `at_marks` runs on the calling thread
/// while the clients work (it samples CPU time at phase boundaries).
/// Returns every operation, in no particular order.
pub fn run_clients<T>(
    stack: &mut Stack,
    inputs: &Inputs,
    clock: Instant,
    limit: Limit,
    at_marks: impl FnOnce() -> T,
) -> (Vec<OpRecord>, T) {
    let store = stack.service.store().clone();
    let driver = Driver {
        inputs,
        slides: stack.slides,
        store: &store,
        clock,
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = stack
            .clients
            .iter_mut()
            .enumerate()
            .map(|(client_index, client)| {
                let driver = &driver;
                scope.spawn(move || {
                    let mut rng = client_rng(inputs.seed, client_index);
                    let mut records = Vec::new();
                    for index in 0.. {
                        let go_on = match limit {
                            Limit::Until(t) => clock.elapsed().as_secs_f64() < t,
                            Limit::Operations(n) => index < n,
                        };
                        if !go_on {
                            break;
                        }
                        records.push(driver.operate(client_index, index, client, &mut rng));
                    }
                    records
                })
            })
            .collect();
        let marks = at_marks();
        let records = handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread finishes"))
            .collect();
        (records, marks)
    })
}

/// Sleeps until `at` seconds on the run's clock.
pub fn sleep_until(clock: Instant, at: f64) {
    let left = at - clock.elapsed().as_secs_f64();
    if left > 0.0 {
        std::thread::sleep(Duration::from_secs_f64(left));
    }
}
