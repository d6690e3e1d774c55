//! Known-good twin of the seeded dispatcher: the forward path rewrites
//! the ReplyTo before the envelope is enqueued.

pub struct Dispatcher {
    queue: OutQueue,
}

impl Dispatcher {
    /// Entry point whose forward path rewrites before the sink.
    pub fn accept(&self, env: Envelope) {
        self.classify(env);
    }

    fn classify(&self, env: Envelope) {
        let env = rewrite_for_forward(env);
        self.queue.enqueue(env);
    }
}
