// pf_analyzer fixture: MUST trip [budget-flow] (see budget_flow_good.cc
// for the clean twin). Parsed by the analyzer, never compiled.
//
// Three violations:
//   1. Bad() reaches a release site with no dominating budget charge.
//   2. BadKernel() runs the serving noise kernel with no charge at all.
//   3. BadOrder() charges the ledger before acquiring an admission permit
//      (shed-before-charge says a shed request must never debit epsilon).

struct Plan {};

struct Session {
  int ChargeLocked(const Plan& p);
  int ReleaseVector(const Plan& p);
  void AddTicketLaplaceNoise(double* values, int n, double scale, long key);
  bool TryAcquire();

  int Bad(const Plan& p) {
    return ReleaseVector(p);  // Release with no charge on any path.
  }

  void BadKernel(double* values, long key) {
    AddTicketLaplaceNoise(values, 1, 1.0, key);  // Noise, never charged.
  }

  int BadOrder(const Plan& p) {
    int ticket = ChargeLocked(p);  // Charge precedes admission.
    if (!TryAcquire()) {
      return -1;  // Shed AFTER the ledger was already debited.
    }
    return ticket;
  }
};
