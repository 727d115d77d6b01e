//! Deliberate `hot-alloc` violations in the two `Observer` methods: a
//! sink that allocates per record breaks the engine's zero-alloc
//! contract on every packet event and every published sample. The
//! `hot_alloc_` filename prefix classifies this fixture as a hot-path
//! module (see `rules::classify`).

struct Sink {
    events: Vec<Vec<u64>>,
    samples: Vec<Box<f64>>,
}

impl Sink {
    fn record_event(&mut self, kind: u64) {
        self.events.push(vec![kind]); // flagged: a vec! per packet event
    }

    fn record_sample(&mut self, value: f64) {
        self.samples.push(Box::new(value)); // flagged: a Box per sample
    }

    fn export(&self) -> Vec<Vec<u64>> {
        self.events.to_vec() // not flagged: runs after the simulation
    }
}
