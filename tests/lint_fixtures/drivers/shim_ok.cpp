// Clean driver: a layerless TU whose only project include is a lab/
// header — exactly what the driver-include rule demands.
#include "lab/driver.hpp"

int main(int argc, char** argv) {
  return impact::lab::impact_main(argc, argv);
}
