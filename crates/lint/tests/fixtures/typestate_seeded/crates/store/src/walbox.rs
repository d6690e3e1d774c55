//! Seeded typestate violations: WAL records appended but not
//! committed on every return path — the ack-before-durable race.

pub struct WalBox {
    wal: Wal,
}

impl WalBox {
    /// SEEDED(wal-ack-before-durable): falls off the end with the
    /// record appended but never fsynced.
    pub fn deposit_fast(&mut self, rec: Frame) -> Result<Lsn, Error> {
        let lsn = self.wal.append(rec)?;
        Ok(lsn)
    }

    /// SEEDED(wal-ack-before-durable): the happy path commits, the
    /// fast-ack early return does not.
    pub fn deposit_racy(&mut self, rec: Frame, fast: bool) -> Result<(), Error> {
        let lsn = self.wal.append(rec)?;
        if fast {
            return Ok(());
        }
        self.wal.commit(lsn)?;
        Ok(())
    }

    /// SEEDED(wal-ack-before-durable): the batch path appends the
    /// whole run and commits once — but a run of one skips the commit
    /// ("it rides the next batch's fsync") and its `202` goes out with
    /// the record still in the page cache.
    pub fn deposit_batch(&mut self, recs: Vec<Frame>) -> Result<Vec<Status>, Error> {
        let mut acks = Vec::new();
        let mut last = Lsn(0);
        for rec in recs {
            last = self.wal.append(rec)?;
            acks.push(Status::ACCEPTED);
        }
        if acks.len() < 2 {
            return Ok(acks);
        }
        self.wal.commit(last)?;
        Ok(acks)
    }
}
