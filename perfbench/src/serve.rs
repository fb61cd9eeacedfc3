//! The query path: an in-process `apgre_serve::serve` under an open-loop
//! load on a fixed seeded schedule — reads on one connection, mutations on
//! another — then a correctness check of served scores against a
//! from-scratch solve of the checkpointed graph.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use apgre_bc::{bc_apgre_with, ApgreOptions};
use apgre_decomp::Decomposition;
use apgre_graph::Graph;
use apgre_serve::{serve, ServeConfig, ServerHandle};

use crate::inputs::{mutate_body, Kind, Rng, Stream};
use crate::stats::{median, quantile, summarize};
use crate::trace::Tracer;
use crate::{Run, Workload};

/// Share of one connection's read capacity that the scheduled reads use.
/// A twentieth: reads arrive about once a millisecond, often enough to time
/// each mutation's visibility to about a millisecond, while the read path
/// takes little CPU from the writer. Heavier shares made the query path's
/// latencies swing with the machine's speed from run to run (README).
pub const READ_SHARE: f64 = 0.05;
/// Share of the time the writer is busy applying scheduled mutations. Low
/// enough that a run on a machine a third slower than the calibration one
/// still leaves the writer below half busy, so the queue behind a
/// structural batch drains before the next one and the visibility tail is
/// set by batch costs, not by backlog.
pub const WRITER_UTILISATION: f64 = 0.3;
/// Every this many mutations, one is structural (the rest are local): more
/// than the 5% a p95 needs, so structural batches set the p95.
pub const STRUCTURAL_EVERY: usize = 10;
/// Served scores compared against the from-scratch solve.
const CHECKED_VERTICES: usize = 64;

/// Scheduled reads per second: [`READ_SHARE`] of the measured capacity.
pub fn read_rate(w: &Workload) -> f64 {
    READ_SHARE * w.read_capacity_per_s
}

/// Scheduled `POST /mutate` requests per second: [`WRITER_UTILISATION`]
/// over the measured mean batch cost of the mix. They are evenly spaced
/// (from a seeded phase), so a mutation's tail latency comes from the work
/// ahead of it in the writer rather than from chance clustering of arrivals.
pub fn mutate_rate(w: &Workload) -> f64 {
    let every = STRUCTURAL_EVERY as f64;
    let mean_ms = ((every - 1.0) * w.local_batch_ms + w.structural_batch_ms) / every;
    WRITER_UTILISATION / (mean_ms / 1e3)
}

/// The adaptive approx tier's global root budget: the roots the service's
/// default uniform tier (`approx_samples` per sub-graph) would sweep on the
/// same decomposition, so both tiers spend the same work.
pub fn approx_budget(d: &Decomposition) -> usize {
    let k = ServeConfig::default().approx_samples;
    d.subgraphs.iter().map(|sg| sg.roots.len().min(k)).sum::<usize>().max(1)
}

/// Boots the service on an ephemeral port with the adaptive approx tier on.
pub fn boot(g: &Graph, budget: usize, seed: u64, workers: usize) -> std::io::Result<ServerHandle> {
    serve(
        g,
        ServeConfig { workers, approx_budget: budget, approx_seed: seed, ..ServeConfig::default() },
    )
}

/// Closed-loop reads per second on one connection to an idle service, with
/// the route mix of the schedule, over `budget`.
pub fn read_capacity(
    handle: &ServerHandle,
    g: &Graph,
    seed: u64,
    budget: Duration,
) -> std::io::Result<f64> {
    let mut conn = Conn::open(handle.local_addr())?;
    let mut rng = Rng::new(seed, 4);
    let start = Instant::now();
    let mut done = 0u64;
    while start.elapsed() < budget {
        let (_, path) = read_request(&mut rng, g.num_vertices());
        let (status, _) = conn.call("GET", &path, "")?;
        if status != 200 {
            return Err(std::io::Error::other(format!("GET {path}: status {status}")));
        }
        done += 1;
    }
    Ok(done as f64 / start.elapsed().as_secs_f64())
}

/// A keep-alive HTTP/1.1 client connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(Duration::from_secs(20)))?;
        Ok(Conn { reader: BufReader::new(s.try_clone()?), writer: s })
    }

    /// Sends one request and reads the response: (status, body).
    fn call(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<(u16, String)> {
        let req = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.writer.write_all(req.as_bytes())?;
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_owned());
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("status line"))?;
        let mut len = 0usize;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("connection closed in headers"));
            }
            let h = line.trim_end();
            if h.is_empty() {
                break;
            }
            if let Some((k, v)) = h.split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    len = v.trim().parse().map_err(|_| bad("content-length"))?;
                }
            }
        }
        let mut buf = vec![0u8; len];
        self.reader.read_exact(&mut buf)?;
        Ok((status, String::from_utf8_lossy(&buf).into_owned()))
    }
}

/// The value of a top-level numeric field of a flat JSON body.
fn field(body: &str, key: &str) -> Option<f64> {
    let at = body.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &body[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Read routes.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Route {
    Bc,
    Approx,
    Top,
}

/// A seeded read: 45% `GET /bc/:v`, 35% `GET /bc/:v?approx=k`, 20%
/// `GET /top?k=10`. The service answers `?approx` from its configured
/// estimator whatever `k` is, so `k` is its default per-sub-graph cap.
fn read_request(rng: &mut Rng, vertices: usize) -> (Route, String) {
    let v = rng.below(vertices);
    match rng.below(20) {
        0..=8 => (Route::Bc, format!("/bc/{v}")),
        9..=15 => {
            (Route::Approx, format!("/bc/{v}?approx={}", ServeConfig::default().approx_samples))
        }
        _ => (Route::Top, "/top?k=10".to_owned()),
    }
}

/// One completed (or failed) request.
struct Sample {
    route: Option<Route>,
    due: Instant,
    sent: Instant,
    done: Instant,
    status: u16,
    generation: Option<u64>,
}

/// What one client thread saw.
#[derive(Default)]
struct Log {
    scheduled: Vec<Sample>,
    /// (completion time, served generation) of every read, probes included.
    seen: Vec<(Instant, u64)>,
}

/// Sends one request and records when it was due, sent and answered.
fn call_logged(
    conn: &mut Conn,
    log: &mut Log,
    route: Option<Route>,
    due: Instant,
    method: &str,
    path: &str,
    body: &str,
) -> Sample {
    let sent = Instant::now();
    let (status, generation) = match conn.call(method, path, body) {
        Ok((status, body)) => (status, field(&body, "generation").map(|g| g as u64)),
        Err(_) => (0, None),
    };
    let done = Instant::now();
    if let (Some(g), true) = (generation, method == "GET") {
        log.seen.push((done, g));
    }
    Sample { route, due, sent, done, status, generation }
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Waits before the next visibility probe: a tenth of the time the newest
/// mutation has been pending, so long waits cost little CPU yet are
/// resolved to about a tenth of their size; at least 1 ms, because the
/// scheduled reads already observe generations about once a millisecond,
/// and faster probing would only compete with the writer.
fn probe_gap(pending_since: Instant) -> Duration {
    (pending_since.elapsed() / 10).clamp(Duration::from_millis(1), Duration::from_millis(10))
}

/// The open-loop load, run in rounds against one service instance.
pub struct Load {
    read_rate: f64,
    mutate_rate: f64,
    rng: Rng,
    stream: Stream,
    vertices: usize,
    reads: Conn,
    writes: Conn,
    read_log: Log,
    write_log: Log,
    /// Mutations posted so far.
    posted: usize,
    /// Highest generation a POST returned, and highest one a read saw.
    wanted: u64,
    seen: u64,
}

impl Load {
    /// Connects the two client connections to the running service.
    pub fn new(
        handle: &ServerHandle,
        w: &Workload,
        g: &Graph,
        stream: Stream,
        seed: u64,
    ) -> std::io::Result<Self> {
        let addr = handle.local_addr();
        Ok(Load {
            read_rate: read_rate(w),
            mutate_rate: mutate_rate(w),
            rng: Rng::new(seed, 3),
            stream,
            vertices: g.num_vertices(),
            reads: Conn::open(addr)?,
            writes: Conn::open(addr)?,
            read_log: Log::default(),
            write_log: Log::default(),
            posted: 0,
            wanted: 0,
            seen: 0,
        })
    }

    /// Runs `budget` of scheduled load, then waits until every accepted
    /// mutation is served. Each scheduled request becomes a span under the
    /// innermost span open in `tracer`.
    pub fn round(&mut self, budget: Duration, tracer: &mut Tracer) {
        let logged = (self.read_log.scheduled.len(), self.write_log.scheduled.len());
        let secs = budget.as_secs_f64();
        let mut reads = Vec::new();
        let mut t = self.rng.exp_gap(self.read_rate);
        while t < secs {
            let (route, path) = read_request(&mut self.rng, self.vertices);
            reads.push((t, route, path));
            t += self.rng.exp_gap(self.read_rate);
        }
        let mut mutations = Vec::new();
        let mut t = self.rng.unit() / self.mutate_rate;
        while t < secs {
            self.posted += 1;
            let kind = if self.posted.is_multiple_of(STRUCTURAL_EVERY) {
                Kind::Structural
            } else {
                Kind::Local
            };
            mutations.push((t, mutate_body(&self.stream.next(kind))));
            t += 1.0 / self.mutate_rate;
        }

        let start = Instant::now() + Duration::from_millis(20);
        let at = |s: f64| start + Duration::from_secs_f64(s);
        let Load { reads: rconn, writes: mconn, read_log, write_log, wanted, seen, .. } = self;
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for (due, route, path) in &reads {
                    let due = at(*due);
                    sleep_until(due);
                    let s = call_logged(rconn, read_log, Some(*route), due, "GET", path, "");
                    read_log.scheduled.push(s);
                }
            });
            let probe = |conn: &mut Conn, log: &mut Log, seen: &mut u64| {
                let s = call_logged(conn, log, None, Instant::now(), "GET", "/bc/0", "");
                *seen = (*seen).max(s.generation.unwrap_or(0));
                s.status == 200
            };
            let mut pending_since = Instant::now();
            for (due, body) in &mutations {
                let due = at(*due);
                while *seen < *wanted && Instant::now() + probe_gap(pending_since) < due {
                    probe(mconn, write_log, seen);
                    std::thread::sleep(probe_gap(pending_since));
                }
                sleep_until(due);
                let s = call_logged(mconn, write_log, None, due, "POST", "/mutate", body);
                *wanted = (*wanted).max(s.generation.unwrap_or(0));
                write_log.scheduled.push(s);
                pending_since = due;
            }
            // Drain: wait until the last accepted mutation is served.
            let deadline = Instant::now() + Duration::from_secs(60);
            while *seen < *wanted && Instant::now() < deadline {
                if !probe(mconn, write_log, seen) {
                    break;
                }
                std::thread::sleep(probe_gap(pending_since));
            }
        });
        let new =
            self.read_log.scheduled[logged.0..].iter().chain(&self.write_log.scheduled[logged.1..]);
        for s in new {
            let name = match s.route {
                Some(Route::Bc) => "serve.get_bc",
                Some(Route::Approx) => "serve.get_bc_approx",
                Some(Route::Top) => "serve.get_top",
                None => "serve.post_mutate",
            };
            tracer.record(name, s.sent, s.done);
        }
    }

    /// Reports the phase's metrics, checks served scores against a
    /// from-scratch solve, and scrapes `/metrics`.
    pub fn finish(mut self, run: &mut Run) {
        let (rlog, mlog) = (&self.read_log, &self.write_log);
        if self.seen < self.wanted {
            run.fail(format!(
                "serve: generation {} never became visible (saw {})",
                self.wanted, self.seen
            ));
        }
        // Failures: transport errors and non-2xx answers.
        let (mut rejected, mut failed, mut attempted) = (0usize, 0u64, 0u64);
        for s in rlog.scheduled.iter().chain(&mlog.scheduled) {
            attempted += 1;
            if !(200..300).contains(&s.status) {
                failed += 1;
                rejected += usize::from(s.status == 429);
            }
        }
        run.attempted += attempted;
        run.failed += failed;

        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let query: Vec<f64> = rlog.scheduled.iter().map(|s| ms(s.done - s.due)).collect();
        let lag: Vec<f64> =
            rlog.scheduled.iter().chain(&mlog.scheduled).map(|s| ms(s.sent - s.due)).collect();
        let service = |r: Route| -> Vec<f64> {
            rlog.scheduled
                .iter()
                .filter(|s| s.route == Some(r))
                .map(|s| ms(s.done - s.sent))
                .collect()
        };
        let admit: Vec<f64> = mlog.scheduled.iter().map(|s| ms(s.done - s.sent)).collect();

        // Mutation-to-visible: from when the POST was due to the first read
        // (either connection) that reported a generation at least the POST's.
        let mut seen_all: Vec<(Instant, u64)> =
            rlog.seen.iter().chain(&mlog.seen).copied().collect();
        seen_all.sort_by_key(|&(t, _)| t);
        let mut high = Vec::with_capacity(seen_all.len());
        let mut best = 0u64;
        for &(t, g) in &seen_all {
            best = best.max(g);
            high.push((t, best));
        }
        let visible: Vec<f64> = mlog
            .scheduled
            .iter()
            .filter_map(|s| {
                let g = s.generation?;
                let i = high.partition_point(|&(_, h)| h < g);
                high.get(i).map(|&(t, _)| ms(t.saturating_duration_since(s.due)))
            })
            .collect();
        eprintln!(
            "serve: {} reads [{}] ms, {} mutations visible [{}] ms, {failed} failed",
            query.len(),
            summarize(&query),
            visible.len(),
            summarize(&visible)
        );
        run.layer("serve.query_p50_ms", median(&query), "ms");
        run.layer("serve.query_p99_ms", quantile(&query, 990), "ms");
        run.layer("serve.mutation_visible_p50_ms", median(&visible), "ms");
        run.layer("serve.mutation_visible_p95_ms", quantile(&visible, 950), "ms");

        run.layer("serve.bc_p99_ms", quantile(&service(Route::Bc), 990), "ms");
        run.layer("serve.approx_p99_ms", quantile(&service(Route::Approx), 990), "ms");
        run.layer("serve.top_p99_ms", quantile(&service(Route::Top), 990), "ms");
        run.layer("serve.mutate_admit_p99_ms", quantile(&admit, 990), "ms");
        run.layer("serve.rejected_429", rejected as f64, "count");
        run.layer("serve.generator_lag_p99_ms", quantile(&lag, 990), "ms");

        let sp = run.tracer.open("check.serve");
        check(&mut self.reads, self.wanted, &mut self.rng, run);
        run.tracer.close(sp);
        match self.reads.call("GET", "/metrics", "") {
            Ok((200, text)) => scrape(&text, run),
            other => run.fail(format!("serve: GET /metrics failed: {:?}", other.map(|r| r.0))),
        }
    }
}

/// Compares sampled served scores with a from-scratch solve of the served
/// graph, fetched through `POST /checkpoint` once `generation` is served.
fn check(conn: &mut Conn, generation: u64, rng: &mut Rng, run: &mut Run) {
    let graph = match conn.call("POST", "/checkpoint", "") {
        Ok((200, text)) => apgre_graph::io::read_edge_list(text.as_bytes(), false),
        other => {
            run.fail(format!("serve: POST /checkpoint failed: {:?}", other.map(|r| r.0)));
            return;
        }
    };
    let graph = match graph {
        Ok(g) => g,
        Err(e) => return run.fail(format!("serve: checkpoint does not parse: {e:?}")),
    };
    let (want, _) = run.pool.install(|| bc_apgre_with(&graph, &ApgreOptions::default()));
    let (mut got, mut expect) = (Vec::new(), Vec::new());
    for _ in 0..CHECKED_VERTICES {
        let v = rng.below(graph.num_vertices());
        match conn.call("GET", &format!("/bc/{v}"), "") {
            Ok((200, body)) if field(&body, "generation") == Some(generation as f64) => {
                got.push(field(&body, "score").unwrap_or(f64::NAN));
                expect.push(want[v]);
            }
            other => return run.fail(format!("serve: GET /bc/{v} at check: {other:?}")),
        }
    }
    let max_abs = want.iter().fold(0.0f64, |m, x| m.max(x.abs()));
    if let Err(e) = crate::check::scores_match_at(&got, &expect, max_abs) {
        run.fail(format!("serve: served score vs from-scratch solve: {e}"));
    }
}

/// Reads the writer-side means off the Prometheus exposition.
fn scrape(text: &str, run: &mut Run) {
    let value = |name: &str| -> f64 {
        text.lines()
            .filter(|l| l.starts_with(name) && !l.starts_with('#'))
            .filter(|l| l[name.len()..].starts_with([' ', '{']))
            .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
            .sum()
    };
    let batches = value("apgre_serve_batches_total");
    let per = |sum: f64, count: f64| if count > 0.0 { sum / count } else { f64::NAN };
    run.layer(
        "serve.writer_apply_mean_ms",
        per(value("apgre_serve_batch_apply_seconds_total_micros") / 1e3, batches),
        "ms",
    );
    run.layer(
        "serve.publish_mean_ms",
        per(
            value("apgre_serve_publish_seconds_sum") * 1e3,
            value("apgre_serve_publish_seconds_count"),
        ),
        "ms",
    );
    run.layer(
        "serve.approx_refresh_mean_ms",
        per(
            value("apgre_serve_approx_refresh_seconds_sum") * 1e3,
            value("apgre_serve_approx_refresh_seconds_count"),
        ),
        "ms",
    );
}

#[cfg(test)]
mod tests {
    use super::{field, mutate_rate, read_rate, READ_SHARE, STRUCTURAL_EVERY, WRITER_UTILISATION};
    use crate::WORKLOADS;

    #[test]
    fn rates_follow_from_the_measured_costs() {
        for w in &WORKLOADS {
            assert_eq!(read_rate(w), READ_SHARE * w.read_capacity_per_s);
            // Over one cycle of the mix the writer is busy its share of the time.
            let every = STRUCTURAL_EVERY as f64;
            let busy_ms = (every - 1.0) * w.local_batch_ms + w.structural_batch_ms;
            let cycle_ms = every * 1e3 / mutate_rate(w);
            assert!((busy_ms / cycle_ms - WRITER_UTILISATION).abs() < 1e-12, "{}", w.name);
        }
    }

    #[test]
    fn field_reads_flat_json_numbers() {
        let body = "{\"vertex\":3,\"score\":1.5e2,\"tier\":\"exact\",\"generation\":7}";
        assert_eq!(field(body, "score"), Some(150.0));
        assert_eq!(field(body, "generation"), Some(7.0));
        assert_eq!(field(body, "missing"), None);
    }
}
