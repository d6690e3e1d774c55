//! Seeded interprocedural violation: an envelope is forwarded (enqueued)
//! with no WS-Addressing ReplyTo rewrite anywhere on the path from the
//! entry point to the sink.

pub struct Dispatcher {
    queue: OutQueue,
}

impl Dispatcher {
    /// SEEDED(wsa-rewrite-before-forward): entry point whose forward
    /// path never rewrites the ReplyTo.
    pub fn accept(&self, env: Envelope) {
        self.classify(env);
    }

    fn classify(&self, env: Envelope) {
        self.queue.enqueue(env);
    }
}
