//! End-to-end tests of the multi-tenant registry server: the full
//! LOAD → BIND → SHADOW → PROMOTE → ROLLBACK → RETIRE journey over TCP
//! with bit-identity against each checkpoint's offline oracle, the
//! quota governor's deterministic shedding, the shadow circuit breaker
//! tripped by an injected serve-path corruption, version-skew typing,
//! and a promote/rollback stress proving no response is ever torn
//! between versions.

use kgag::{checkpoint_hash, Kgag, KgagConfig, RegistryError, RegistryModel, Scorer};
use kgag_data::movielens::Scale;
use kgag_data::split::split_dataset;
use kgag_data::yelp::{yelp, YelpConfig};
use kgag_data::GroupDataset;
use kgag_serve::{
    serve_tcp, serve_tcp_registry, ModelFactory, RegistryConfig, RegistryServer, ServeClient,
    ServeConfig, ServeError, ShutdownToken,
};
use kgag_tensor::pool::with_threads;
use kgag_testkit::{FaultAction, FaultPlan};
use std::net::SocketAddr;
use std::sync::{mpsc, Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Two distinguishable checkpoints over the same dataset: `a` is the CI
/// smoke fixture (three deterministic epochs, one thread), `b` is the
/// untrained initialisation — different parameters, identical shapes,
/// so either can serve any request the other can.
struct Fixture {
    ds: GroupDataset,
    ckpt_a: Vec<u8>,
    ckpt_b: Vec<u8>,
}

static FIXTURE: OnceLock<Fixture> = OnceLock::new();

fn fixture() -> &'static Fixture {
    FIXTURE.get_or_init(|| {
        let ds = yelp(&YelpConfig::at_scale(Scale::Tiny));
        let split = split_dataset(&ds, 11);
        let mut model = Kgag::new(&ds, &split, KgagConfig { epochs: 3, ..Default::default() });
        let ckpt_b = model.save_checkpoint();
        with_threads(1, || model.fit(&split));
        let ckpt_a = model.save_checkpoint();
        assert_ne!(checkpoint_hash(&ckpt_a), checkpoint_hash(&ckpt_b));
        Fixture { ds, ckpt_a, ckpt_b }
    })
}

/// Rebuild a registry entry from checkpoint bytes — what the CLI's
/// model factory does, shared here between direct installs and the
/// wire-LOAD factory.
fn entry_from(bytes: &[u8]) -> RegistryModel {
    let fx = fixture();
    let split = split_dataset(&fx.ds, 11);
    let mut model = Kgag::new(&fx.ds, &split, KgagConfig { epochs: 3, ..Default::default() });
    model.load_checkpoint(bytes).expect("fixture checkpoint must restore");
    RegistryModel::new(Scorer::new(model, true), checkpoint_hash(bytes))
}

fn factory() -> ModelFactory {
    Box::new(|bytes, hash| {
        let entry = entry_from(bytes);
        assert_eq!(entry.hash(), hash, "factory hash disagrees with transport hash");
        Ok(entry)
    })
}

fn fast_config() -> RegistryConfig {
    RegistryConfig {
        serve: ServeConfig {
            batch_window: Duration::from_micros(100),
            max_batch: 16,
            queue_capacity: 1024,
            workers: 1,
        },
        ..RegistryConfig::default()
    }
}

fn cases() -> Vec<(u32, Vec<u32>)> {
    let fx = fixture();
    let g = fx.ds.num_groups();
    let v = fx.ds.num_items;
    (0..6u32)
        .map(|i| {
            let items: Vec<u32> = (0..5).map(|j| (i * 7 + j * 3) % v).collect();
            (i % g, items)
        })
        .collect()
}

fn bits(scores: &[f32]) -> Vec<u32> {
    scores.iter().map(|s| s.to_bits()).collect()
}

/// Offline oracle: the checkpoint's own `score_cases`, single-threaded.
/// The serve path must reproduce these bits exactly, whatever fusion and
/// thread count the batcher used.
fn offline_bits(ckpt: &[u8], cases: &[(u32, Vec<u32>)]) -> Vec<Vec<u32>> {
    let entry = entry_from(ckpt);
    with_threads(1, || entry.try_score_cases(cases)).unwrap().iter().map(|r| bits(r)).collect()
}

/// A registry server on a loopback port, joined down on drop — the
/// registry twin of `shard_e2e`'s `ShardProc`.
struct RegProc {
    addr: SocketAddr,
    token: ShutdownToken,
    handle: Option<JoinHandle<()>>,
}

impl RegProc {
    fn spawn(server: &Arc<RegistryServer>) -> RegProc {
        let server = Arc::clone(server);
        let token = ShutdownToken::new();
        let server_token = token.clone();
        let (tx, rx) = mpsc::channel();
        let handle = std::thread::spawn(move || {
            serve_tcp_registry(&server, "127.0.0.1:0", &server_token, |a| {
                let _ = tx.send(a);
            })
            .expect("registry bind");
        });
        let addr = rx.recv().expect("registry ready");
        RegProc { addr, token, handle: Some(handle) }
    }
}

impl Drop for RegProc {
    fn drop(&mut self) {
        self.token.trigger();
        if let Some(h) = self.handle.take() {
            h.join().expect("registry server exits cleanly");
        }
    }
}

#[test]
fn full_registry_journey_over_tcp_is_bit_identical_to_offline() {
    let fx = fixture();
    let cases = cases();
    let want_a = offline_bits(&fx.ckpt_a, &cases);
    let want_b = offline_bits(&fx.ckpt_b, &cases);

    let dir = std::env::temp_dir().join("kgag_registry_e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let path_a = dir.join("ckpt_a.bin");
    let path_b = dir.join("ckpt_b.bin");
    std::fs::write(&path_a, &fx.ckpt_a).unwrap();
    std::fs::write(&path_b, &fx.ckpt_b).unwrap();

    let server = Arc::new(RegistryServer::new(fast_config(), factory()));
    let proc = RegProc::spawn(&server);
    let mut client = ServeClient::connect(proc.addr).unwrap();

    // LOAD both checkpoints by server-local path; acks carry the hashes
    let hash_a = client.load_model(path_a.to_str().unwrap()).unwrap().expect("load a");
    let hash_b = client.load_model(path_b.to_str().unwrap()).unwrap().expect("load b");
    assert_eq!(hash_a, checkpoint_hash(&fx.ckpt_a));
    assert_eq!(hash_b, checkpoint_hash(&fx.ckpt_b));
    // duplicate load and unreadable path are typed
    assert_eq!(
        client.load_model(path_a.to_str().unwrap()).unwrap(),
        Err(ServeError::Registry(RegistryError::DuplicateModel))
    );
    assert_eq!(client.load_model("/nonexistent/ckpt.bin").unwrap(), Err(ServeError::LoadFailed));

    // BIND tenant 1 to a; scoring an unbound tenant is typed
    assert_eq!(
        client.score_tenant(2, 0, &cases[0].1).unwrap(),
        Err(ServeError::Registry(RegistryError::UnknownTenant))
    );
    assert_eq!(client.bind_tenant(1, hash_a).unwrap(), Ok(hash_a));
    assert_eq!(
        client.bind_tenant(1, hash_b).unwrap(),
        Err(ServeError::Registry(RegistryError::TenantBound))
    );

    // served scores are bit-identical to a's offline oracle
    for (ci, (g, items)) in cases.iter().enumerate() {
        let got = client.score_tenant(1, *g, items).unwrap().expect("bound tenant scores");
        assert_eq!(bits(&got), want_a[ci], "case {ci} diverged from checkpoint a");
    }
    // bounds are typed, not panics
    let bad_group = fx.ds.num_groups() + 50;
    assert_eq!(client.score_tenant(1, bad_group, &[0]).unwrap(), Err(ServeError::Invalid));
    assert_eq!(
        client.score_tenant(1, 0, &[fx.ds.num_items + 1]).unwrap(),
        Err(ServeError::Invalid)
    );

    // SHADOW b with a 3-clean quota: premature promotion is typed, live
    // traffic proves the candidate, then promotion swaps atomically
    assert_eq!(client.stage_shadow(1, hash_b, 3).unwrap(), Ok(hash_b));
    assert_eq!(
        client.promote(1).unwrap(),
        Err(ServeError::Registry(RegistryError::ShadowNotClean))
    );
    for (g, items) in cases.iter().take(3) {
        client.score_tenant(1, *g, items).unwrap().expect("shadowed traffic still scores");
    }
    let status = server.registry().shadow_status(1).expect("shadow staged");
    assert!(status.ready(), "3 mirrored requests must have proven the 3-clean quota: {status:?}");
    assert_eq!(status.mismatches, 0, "identical engines can never diverge");
    assert_eq!(client.promote(1).unwrap(), Ok(hash_b));

    // the new active is b, bit-identical to b's offline oracle
    for (ci, (g, items)) in cases.iter().enumerate() {
        let got = client.score_tenant(1, *g, items).unwrap().expect("promoted tenant scores");
        assert_eq!(bits(&got), want_b[ci], "case {ci} diverged from checkpoint b");
    }

    // ROLLBACK returns to a (and is its own inverse)
    assert_eq!(client.rollback(1).unwrap(), Ok(hash_a));
    let got = client.score_tenant(1, cases[0].0, &cases[0].1).unwrap().unwrap();
    assert_eq!(bits(&got), want_a[0]);
    assert_eq!(client.rollback(1).unwrap(), Ok(hash_b));

    // RETIRE is refused while referenced (a is tenant 1's previous)
    assert_eq!(
        client.retire(hash_a).unwrap(),
        Err(ServeError::Registry(RegistryError::ModelInUse))
    );
    assert_eq!(
        client.retire(0xdead).unwrap(),
        Err(ServeError::Registry(RegistryError::UnknownModel))
    );
}

#[test]
fn retire_drops_an_unreferenced_entry_and_its_batcher() {
    let fx = fixture();
    let server = Arc::new(RegistryServer::new(fast_config(), factory()));
    let hash = server.install(entry_from(&fx.ckpt_b)).unwrap();
    assert_eq!(server.registry().num_models(), 1);
    let proc = RegProc::spawn(&server);
    let mut client = ServeClient::connect(proc.addr).unwrap();
    assert_eq!(client.retire(hash).unwrap(), Ok(hash));
    assert_eq!(server.registry().num_models(), 0);
    assert_eq!(
        client.retire(hash).unwrap(),
        Err(ServeError::Registry(RegistryError::UnknownModel))
    );
}

#[test]
fn version_skew_is_typed_unsupported_in_both_directions() {
    let fx = fixture();
    let cases = cases();

    // v3 opcodes against a single-model server: typed, connection survives
    let entry = entry_from(&fx.ckpt_a);
    let scorer = Scorer::new(entry.model(), true);
    let config = ServeConfig::default();
    let token = ShutdownToken::new();
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|s| {
        let server = {
            let token = token.clone();
            let (scorer, config) = (&scorer, &config);
            s.spawn(move || {
                serve_tcp(scorer, config, "127.0.0.1:0", &token, |a| {
                    let _ = tx.send(a);
                })
            })
        };
        let addr = rx.recv().unwrap();
        let mut client = ServeClient::connect(addr).unwrap();
        assert_eq!(client.score_tenant(0, 0, &[0]).unwrap(), Err(ServeError::Unsupported));
        assert_eq!(client.load_model("x").unwrap(), Err(ServeError::Unsupported));
        assert_eq!(client.bind_tenant(0, 1).unwrap(), Err(ServeError::Unsupported));
        assert_eq!(client.stage_shadow(0, 1, 1).unwrap(), Err(ServeError::Unsupported));
        assert_eq!(client.promote(0).unwrap(), Err(ServeError::Unsupported));
        assert_eq!(client.rollback(0).unwrap(), Err(ServeError::Unsupported));
        assert_eq!(client.retire(1).unwrap(), Err(ServeError::Unsupported));
        // the connection survives skew; v2 scoring still works
        let got = client.score(cases[0].0, &cases[0].1).unwrap().unwrap();
        assert_eq!(got.len(), cases[0].1.len());
        token.trigger();
        server.join().unwrap().unwrap();
    });

    // v2 opcodes against a registry server: same typed answer back
    let server = Arc::new(RegistryServer::new(fast_config(), factory()));
    let hash = server.install(entry_from(&fx.ckpt_a)).unwrap();
    server.registry().bind(0, hash).unwrap();
    let proc = RegProc::spawn(&server);
    let mut client = ServeClient::connect(proc.addr).unwrap();
    assert_eq!(client.score(0, &[0]).unwrap(), Err(ServeError::Unsupported));
    assert_eq!(client.create_group(&[1, 2]).unwrap(), Err(ServeError::Unsupported));
    assert_eq!(client.join_group(0, 1).unwrap(), Err(ServeError::Unsupported));
    // the connection survives; v3 scoring works
    let got = client.score_tenant(0, cases[0].0, &cases[0].1).unwrap().unwrap();
    assert_eq!(got.len(), cases[0].1.len());
}

/// Quota governor with no refill: the first `burst` requests per tenant
/// are admitted, every later one is `Quota`, and the per-tenant obs
/// counters agree exactly. Tenant ids are unique to this test because
/// the counters are process-global.
#[test]
fn quota_sheds_deterministically_and_counters_match() {
    let fx = fixture();
    let cfg =
        RegistryConfig { quota_rate: 0.0, quota_burst: Some(5), shadow_sample: 0, ..fast_config() };
    let server = Arc::new(RegistryServer::new(cfg, factory()));
    let hash = server.install(entry_from(&fx.ckpt_b)).unwrap();
    server.registry().bind(42, hash).unwrap();
    server.registry().bind(43, hash).unwrap();
    let proc = RegProc::spawn(&server);
    let mut client = ServeClient::connect(proc.addr).unwrap();

    let case = &cases()[0];
    for tenant in [42u32, 43] {
        let mut ok = 0;
        let mut shed = 0;
        for _ in 0..8 {
            match client.score_tenant(tenant, case.0, &case.1).unwrap() {
                Ok(_) => ok += 1,
                Err(ServeError::Quota) => shed += 1,
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        assert_eq!((ok, shed), (5, 3), "tenant {tenant}: burst=5, no refill, 8 requests");
        let accepted = kgag_obs::counter(&format!("registry.tenant{tenant}.accepted")).get();
        let rejected = kgag_obs::counter(&format!("registry.tenant{tenant}.quota_rejected")).get();
        assert_eq!((accepted, rejected), (5, 3), "tenant {tenant} counters disagree");
    }
}

/// The tenant-tagged score path has the same untrusted `deadline_us`
/// field as v2: an overflowing value must saturate to "no deadline"
/// and score bit-identically, never panic the connection thread.
#[test]
fn tenant_scoring_survives_overflowing_deadline() {
    let fx = fixture();
    let cases = cases();
    let want = offline_bits(&fx.ckpt_a, &cases);
    let server = Arc::new(RegistryServer::new(fast_config(), factory()));
    let hash = server.install(entry_from(&fx.ckpt_a)).unwrap();
    server.registry().bind(77, hash).unwrap();
    let proc = RegProc::spawn(&server);
    let mut client = ServeClient::connect(proc.addr).unwrap();
    // bound the test if a regression kills the connection thread
    client.set_timeout(Some(Duration::from_secs(10))).unwrap();
    let (g, items) = &cases[0];
    for deadline_us in [u64::MAX, 1 << 62] {
        let got = client
            .score_tenant_with_deadline_us(77, *g, items, deadline_us)
            .expect("connection must survive a hostile deadline")
            .expect("an effectively-infinite deadline must score");
        assert_eq!(bits(&got), want[0], "deadline_us = {deadline_us}");
    }
}

/// The shadow circuit breaker trips on a genuinely divergent serve
/// path: the candidate's batcher corrupts one score (injected fault),
/// the mirror comparison records the mismatch, and the candidate is
/// quarantined registry-wide — while the active arm never misses a
/// beat.
#[test]
fn shadow_divergence_quarantines_the_candidate() {
    let fx = fixture();
    let server = Arc::new(RegistryServer::new(fast_config(), factory()));
    let hash_a = server.install(entry_from(&fx.ckpt_a)).unwrap();
    let hash_b = server
        .install_faulted(entry_from(&fx.ckpt_b), FaultPlan::nth(0, FaultAction::Corrupt))
        .unwrap();
    server.registry().bind(7, hash_a).unwrap();
    server.registry().stage_shadow(7, hash_b, 100).unwrap();

    let proc = RegProc::spawn(&server);
    let mut client = ServeClient::connect(proc.addr).unwrap();
    let case = &cases()[0];
    let want_a = offline_bits(&fx.ckpt_a, std::slice::from_ref(case));

    // the first mirrored request draws the corruption: mismatch
    let got = client.score_tenant(7, case.0, &case.1).unwrap().expect("active arm unaffected");
    assert_eq!(bits(&got), want_a[0], "active response must stay bit-identical to a");

    assert!(server.registry().is_quarantined(hash_b), "one mismatch must quarantine");
    assert_eq!(server.registry().shadow_status(7), None, "the stage must dissolve");
    assert_eq!(
        server.registry().stage_shadow(7, hash_b, 1),
        Err(RegistryError::Quarantined),
        "quarantined candidates cannot be restaged"
    );
    assert_eq!(
        client.promote(7).unwrap(),
        Err(ServeError::Registry(RegistryError::ShadowNotClean))
    );
    assert!(kgag_obs::counter("registry.shadow_mismatch").get() >= 1);

    // the active arm keeps serving, still bit-identical
    let got = client.score_tenant(7, case.0, &case.1).unwrap().unwrap();
    assert_eq!(bits(&got), want_a[0]);
}

/// Promote/rollback storm under concurrent clients: every response must
/// be bit-identical to ONE checkpoint's offline scores for that case —
/// never a row mixed across versions — and a second tenant, pinned to a
/// single version throughout, must never see the other one.
#[test]
fn promote_rollback_storm_never_tears_a_response() {
    let fx = fixture();
    let cases = cases();
    let want_a = offline_bits(&fx.ckpt_a, &cases);
    let want_b = offline_bits(&fx.ckpt_b, &cases);

    let server = Arc::new(RegistryServer::new(fast_config(), factory()));
    let hash_a = server.install(entry_from(&fx.ckpt_a)).unwrap();
    let hash_b = server.install(entry_from(&fx.ckpt_b)).unwrap();
    // tenant 0 oscillates between a and b; tenant 1 is pinned to a
    server.registry().bind(0, hash_a).unwrap();
    server.registry().bind(1, hash_a).unwrap();
    server.registry().stage_shadow(0, hash_b, 0).unwrap();
    server.registry().promote(0).unwrap(); // active b, previous a

    let proc = RegProc::spawn(&server);
    let addr = proc.addr;
    std::thread::scope(|s| {
        let mutator = {
            let server = Arc::clone(&server);
            s.spawn(move || {
                for _ in 0..60 {
                    server.registry().rollback(0).expect("rollback storm");
                    std::thread::sleep(Duration::from_micros(300));
                }
            })
        };
        let mut clients = Vec::new();
        for t in 0..4u32 {
            let (cases, want_a, want_b) = (&cases, &want_a, &want_b);
            clients.push(s.spawn(move || {
                let mut client = ServeClient::connect(addr).unwrap();
                let tenant = t % 2;
                for i in 0..40usize {
                    let ci = (i + t as usize) % cases.len();
                    let (g, items) = &cases[ci];
                    let got =
                        client.score_tenant(tenant, *g, items).unwrap().expect("storm scores");
                    let got = bits(&got);
                    if tenant == 1 {
                        assert_eq!(got, want_a[ci], "pinned tenant saw the other version");
                    } else {
                        assert!(
                            got == want_a[ci] || got == want_b[ci],
                            "case {ci}: response matches neither checkpoint — torn mix"
                        );
                    }
                }
            }));
        }
        mutator.join().unwrap();
        for c in clients {
            c.join().unwrap();
        }
    });
}
