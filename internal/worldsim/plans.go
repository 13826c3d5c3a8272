package worldsim

// TLDPlan encodes one Table 1/Table 2 row: the TLD's zone-file NRD volume,
// the monthly CT-detected NRD counts (used as monthly weights), the
// certificate coverage (Table 1 Coverage column) and the monthly transient
// detections (Table 2).
type TLDPlan struct {
	TLD          string
	ZoneNRDs     int     // Table 1 "Zone NRD" (3-month total)
	MonthlyCT    [3]int  // Table 1 Nov/Dec/Jan CT-detected NRDs
	CertCoverage float64 // Table 1 Coverage
	Transients   [3]int  // Table 2 Nov/Dec/Jan transients (0 when absent)
}

// CTTotal returns the 3-month CT-detected NRD count.
func (p TLDPlan) CTTotal() int { return p.MonthlyCT[0] + p.MonthlyCT[1] + p.MonthlyCT[2] }

// TransientTotal returns the 3-month transient count.
func (p TLDPlan) TransientTotal() int { return p.Transients[0] + p.Transients[1] + p.Transients[2] }

// PaperPlans reproduces Tables 1 and 2 of the paper. The "Others"
// aggregate row is split across five representative tail TLDs; .fun
// carries the Table 2 transient counts attributed to it, and the
// remaining Others volume is spread by fixed proportions.
func PaperPlans() []TLDPlan {
	return []TLDPlan{
		{TLD: "com", ZoneNRDs: 8_467_641, MonthlyCT: [3]int{1_127_727, 1_109_804, 1_505_044}, CertCoverage: 0.442, Transients: [3]int{9363, 10_597, 21_232}},
		{TLD: "xyz", ZoneNRDs: 649_010, MonthlyCT: [3]int{114_582, 87_051, 107_740}, CertCoverage: 0.477, Transients: [3]int{321, 316, 624}},
		{TLD: "shop", ZoneNRDs: 775_253, MonthlyCT: [3]int{76_626, 99_660, 107_675}, CertCoverage: 0.366, Transients: [3]int{688, 497, 507}},
		{TLD: "online", ZoneNRDs: 648_922, MonthlyCT: [3]int{76_674, 76_693, 109_964}, CertCoverage: 0.406, Transients: [3]int{1800, 2369, 1990}},
		{TLD: "bond", ZoneNRDs: 292_552, MonthlyCT: [3]int{75_779, 81_265, 84_997}, CertCoverage: 0.827, Transients: [3]int{0, 0, 0}},
		{TLD: "top", ZoneNRDs: 532_363, MonthlyCT: [3]int{82_746, 74_134, 83_837}, CertCoverage: 0.452, Transients: [3]int{213, 161, 276}},
		{TLD: "net", ZoneNRDs: 643_030, MonthlyCT: [3]int{79_660, 71_922, 84_320}, CertCoverage: 0.367, Transients: [3]int{702, 866, 1544}},
		{TLD: "org", ZoneNRDs: 481_870, MonthlyCT: [3]int{53_377, 53_767, 76_400}, CertCoverage: 0.381, Transients: [3]int{595, 602, 1176}},
		{TLD: "site", ZoneNRDs: 465_542, MonthlyCT: [3]int{46_695, 47_879, 65_801}, CertCoverage: 0.344, Transients: [3]int{1578, 1381, 890}},
		{TLD: "store", ZoneNRDs: 326_383, MonthlyCT: [3]int{42_931, 38_699, 50_279}, CertCoverage: 0.404, Transients: [3]int{422, 414, 377}},
		// "Others" (3,009,575 zone NRDs; 1,042,121 CT NRDs; 34.6 %
		// coverage; 6,021 transients beyond .fun's 520) split across
		// five tail TLDs.
		{TLD: "fun", ZoneNRDs: 300_000, MonthlyCT: [3]int{32_857, 33_300, 38_055}, CertCoverage: 0.346, Transients: [3]int{185, 175, 160}},
		{TLD: "icu", ZoneNRDs: 750_000, MonthlyCT: [3]int{82_142, 83_250, 95_137}, CertCoverage: 0.346, Transients: [3]int{500, 600, 750}},
		{TLD: "club", ZoneNRDs: 700_000, MonthlyCT: [3]int{73_928, 74_925, 85_623}, CertCoverage: 0.346, Transients: [3]int{400, 500, 620}},
		{TLD: "live", ZoneNRDs: 650_000, MonthlyCT: [3]int{73_928, 74_925, 85_623}, CertCoverage: 0.346, Transients: [3]int{380, 450, 560}},
		{TLD: "website", ZoneNRDs: 609_575, MonthlyCT: [3]int{65_715, 66_600, 76_113}, CertCoverage: 0.346, Transients: [3]int{329, 408, 524}},
	}
}

// CCTLDPlan parameterizes the ground-truth ccTLD experiment (§4.4, .nl).
type CCTLDPlan struct {
	TLD string
	// FastDeleted is the 3-month count of domains deleted within 24 h of
	// registration per the registry's own ledger (paper: 714).
	FastDeleted int
	// Normal long-lived registrations across the window, for realism.
	Normal int
	// TransientCertRate is the probability a fast-deleted domain
	// requests a certificate before dying; calibrated so the pipeline
	// recovers ≈30 % of never-in-zone domains (paper: 99/334 = 29.6 %).
	TransientCertRate float64
}

// PaperCCTLD returns the .nl plan. Normal is kept modest: the experiment
// only needs enough background registrations for the registry to behave
// like a real zone, and these counts are NOT scaled by Config.Scale.
func PaperCCTLD() CCTLDPlan {
	return CCTLDPlan{TLD: "nl", FastDeleted: 714, Normal: 8_000, TransientCertRate: 0.37}
}
