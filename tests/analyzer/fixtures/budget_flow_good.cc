// pf_analyzer fixture: clean twin of budget_flow_bad.cc — MUST NOT trip
// [budget-flow]. Every release is dominated by a charge (including through
// the early-return join), and the permit precedes the charge.

struct Plan {};

struct Session {
  int ChargeLocked(const Plan& p);
  int ReleaseVector(const Plan& p);
  void AddTicketLaplaceNoise(double* values, int n, double scale, long key);
  bool TryAcquire();

  int Good(const Plan& p) {
    if (!TryAcquire()) {
      return -1;  // Shed before the ledger is touched.
    }
    int ticket = ChargeLocked(p);
    if (ticket < 0) {
      return ticket;  // Refused: no release happens.
    }
    return ReleaseVector(p);  // Dominated by the charge above.
  }

  int GoodBranchy(const Plan& p, bool strict) {
    if (!TryAcquire()) {
      return -1;
    }
    int ticket = 0;
    if (strict) {
      ticket = ChargeLocked(p);
    } else {
      ticket = ChargeLocked(p);
    }
    return ReleaseVector(p);  // Charged on BOTH branches of the join.
  }

  int GoodKernel(const Plan& p, double* values, long key) {
    if (!TryAcquire()) {
      return -1;
    }
    int ticket = ChargeLocked(p);
    if (ticket < 0) {
      return ticket;
    }
    AddTicketLaplaceNoise(values, 1, 1.0, key);  // Dominated by the charge.
    return ticket;
  }
};
