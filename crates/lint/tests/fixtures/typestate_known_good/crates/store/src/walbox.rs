//! Known-good twin of the seeded WAL fixture: every return path
//! commits what it appended before acking.

pub struct WalBox {
    wal: Wal,
}

impl WalBox {
    pub fn deposit_fast(&mut self, rec: Frame) -> Result<Lsn, Error> {
        let lsn = self.wal.append(rec)?;
        self.wal.commit(lsn)?;
        Ok(lsn)
    }

    pub fn deposit_racy(&mut self, rec: Frame, fast: bool) -> Result<(), Error> {
        let lsn = self.wal.append(rec)?;
        self.wal.commit(lsn)?;
        if fast {
            return Ok(());
        }
        Ok(())
    }

    /// The batch barrier done right: append the run, one commit of the
    /// highest LSN on every path, only then hand the acks back.
    pub fn deposit_batch(&mut self, recs: Vec<Frame>) -> Result<Vec<Status>, Error> {
        let mut acks = Vec::new();
        let mut last = Lsn(0);
        for rec in recs {
            last = self.wal.append(rec)?;
            acks.push(Status::ACCEPTED);
        }
        self.wal.commit(last)?;
        Ok(acks)
    }
}
