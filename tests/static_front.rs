//! The static front door answers an out-of-range id with a typed
//! `Invalid` for that request alone: its fused neighbours keep the
//! offline bits and no scorer panics (DESIGN.md §12).

use kgag::{Kgag, KgagConfig, Scorer};
use kgag_data::movielens::Scale;
use kgag_data::split::split_dataset;
use kgag_data::yelp::{yelp, YelpConfig};
use kgag_serve::{serve_in_process, serve_tcp, ServeClient, ServeConfig, ServeError};
use kgag_serve::{ServeResult, ShutdownToken};
use std::sync::mpsc;
use std::time::Duration;

fn bits(scores: &[f32]) -> Vec<u32> {
    scores.iter().map(|s| s.to_bits()).collect()
}

fn assert_scores(got: &ServeResult, want: &[f32], what: &str) {
    let got = got.as_ref().unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(bits(got), bits(want), "{what}: served bits differ from offline");
}

#[test]
fn a_bad_group_fails_alone_in_its_fused_batch_and_over_tcp() {
    let ds = yelp(&YelpConfig::at_scale(Scale::Tiny));
    let split = split_dataset(&ds, 11);
    let model = Kgag::new(&ds, &split, KgagConfig::default());
    let scorer = Scorer::new(&model, true);
    let bad = scorer.num_groups() + 5;
    let cases = [(0, vec![0, 1, 2]), (bad, vec![3, 4]), (1, vec![5, 6]), (2, vec![7])];
    let panics = kgag_obs::counter("serve.scorer_panics");
    let panics_before = panics.get();

    // one worker, a 50 ms window and a batch cap of four: the four
    // requests, submitted back to back, are scored in one fused call
    let fused = ServeConfig {
        batch_window: Duration::from_millis(50),
        max_batch: cases.len(),
        queue_capacity: 16,
        workers: 1,
    };
    let served: Vec<ServeResult> = serve_in_process(&scorer, &fused, |handle| {
        let pending: Vec<_> = cases
            .iter()
            .map(|(g, items)| handle.submit(*g, items.clone(), None).expect("accepted"))
            .collect();
        pending.into_iter().map(|p| p.wait()).collect()
    });
    assert_eq!(served[1], Err(ServeError::Invalid), "the bad group is a typed error");
    for ci in [0, 2, 3] {
        let (g, items) = &cases[ci];
        let want = model.score_group_items(*g, items);
        assert_scores(&served[ci], &want, &format!("fused neighbour {ci}"));
    }

    // the TCP front door answers the same way and keeps the connection
    let token = ShutdownToken::new();
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|s| {
        let server = s.spawn(|| {
            serve_tcp(&scorer, &ServeConfig::default(), "127.0.0.1:0", &token, |addr| {
                tx.send(addr).expect("test thread waits for the address")
            })
        });
        let mut client = ServeClient::connect(rx.recv().expect("server ready")).expect("connect");
        assert_eq!(client.score(bad, &[3, 4]).expect("transport"), Err(ServeError::Invalid));
        let over = scorer.num_items();
        assert_eq!(client.score(0, &[0, over]).expect("transport"), Err(ServeError::Invalid));
        let again = client.score(0, &[0, 1, 2]).expect("connection still usable");
        assert_scores(&again, &model.score_group_items(0, &[0, 1, 2]), "after the bad request");
        token.trigger();
        server.join().expect("server thread").expect("serve_tcp");
    });

    assert_eq!(panics.get(), panics_before, "serve.scorer_panics must stay 0");
}
